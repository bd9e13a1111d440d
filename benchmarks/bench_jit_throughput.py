"""Trace-JIT sweep throughput: warm-cache jit vs the reference oracle.

Runs the analysis-bound Table I subset — the benchmarks whose wall
clock is dominated by per-access coalescing/bank analysis rather than
by the SIMT lane loop itself — once per backend and reports the warm
replay speedup.  Results are asserted byte-identical before any time is
reported, the reference-vs-jit wall clocks are compared through
``prof diff`` (the one sanctioned cross-backend diff, so the report
carries the ``MISMATCH allowed by flag`` marker), and the whole block
persists to ``BENCH_jit_throughput.json``.

Compute-bound entries (DynParallel dwell loops, TaskGraph chains,
transfer-bound UniMem/MiniTransfer) replay their analyses too but are
body-bound, so they are measured by ``bench_table1`` instead; this file
is the throughput claim for the jit tier, not a second Table I.
"""

import tempfile
import time

from benchmarks.common import emit, one_shot
from repro.core.registry import get_benchmark
from repro.exec import use_backend
from repro.jit import jit_stats, reset_jit_store
from repro.prof.diff import diff_metrics
from repro.prof.metrics import BENCH_SCHEMA

#: the analysis-bound subset, at paper-scale default parameters
SWEEP = ("CoMem", "WarpDivRedux", "HDOverlap", "BankRedux")


def _timed_run(name):
    t0 = time.perf_counter()
    result = get_benchmark(name).run()
    return result.as_dict(), time.perf_counter() - t0


def run_throughput_sweep():
    """One reference pass, one cold jit pass, one warm jit pass."""
    import os

    rows = []
    prev = os.environ.get("REPRO_JIT_CACHE_DIR")
    os.environ["REPRO_JIT_CACHE_DIR"] = tempfile.mkdtemp(prefix="jit-bench-")
    reset_jit_store()
    try:
        for name in SWEEP:
            with use_backend("reference"):
                ref, t_ref = _timed_run(name)
            with use_backend("jit"):
                cold, t_cold = _timed_run(name)
                warm, t_warm = _timed_run(name)
            assert ref == cold == warm, f"{name}: jit diverged from reference"
            # baseline = reference backend, optimized = warm jit; the
            # rows follow the bench-result layout so the document
            # validates as repro-prof-bench/1
            rows.append(
                dict(
                    benchmark=name,
                    baseline_time_s=t_ref,
                    jit_cold_s=t_cold,
                    optimized_time_s=t_warm,
                    speedup=t_ref / t_warm,
                    verified=True,
                )
            )
        stats = jit_stats()
    finally:
        if prev is None:
            os.environ.pop("REPRO_JIT_CACHE_DIR", None)
        else:
            os.environ["REPRO_JIT_CACHE_DIR"] = prev
        reset_jit_store()
    return rows, stats


def test_jit_throughput(benchmark):
    rows, store_stats = run_throughput_sweep()
    total_ref = sum(r["baseline_time_s"] for r in rows)
    total_warm = sum(r["optimized_time_s"] for r in rows)
    aggregate = total_ref / total_warm

    # the sanctioned cross-backend diff: identical analysis quantities,
    # wildly different wall clock
    before = {
        "backend": "reference",
        "kernels": {
            r["benchmark"]: {"time_avg_s": r["baseline_time_s"]} for r in rows
        },
    }
    after = {
        "backend": "jit",
        "kernels": {
            r["benchmark"]: {"time_avg_s": r["optimized_time_s"]} for r in rows
        },
    }
    report = diff_metrics(
        before,
        after,
        before_label="reference",
        after_label="jit-warm",
        allow_backend_mismatch=True,
    )

    lines = [
        f"{'benchmark':14s} {'reference':>10s} {'jit cold':>10s} "
        f"{'jit warm':>10s} {'speedup':>8s}"
    ]
    for r in rows:
        lines.append(
            f"{r['benchmark']:14s} {r['baseline_time_s']:9.2f}s "
            f"{r['jit_cold_s']:9.2f}s {r['optimized_time_s']:9.2f}s "
            f"{r['speedup']:7.2f}x"
        )
    lines.append(
        f"{'aggregate':14s} {total_ref:9.2f}s {'':10s} "
        f"{total_warm:9.2f}s {aggregate:7.2f}x"
    )
    emit(
        "jit_throughput",
        "\n".join(lines),
        report.render(),
        data={
            "schema": BENCH_SCHEMA,
            "backend": "reference+jit",
            "sweep_benchmarks": list(SWEEP),
            "results": rows,
            "aggregate_speedup": aggregate,
            "reference_total_s": total_ref,
            "jit_warm_total_s": total_warm,
            "prof_diff": {
                "before_backend": report.before_backend,
                "after_backend": report.after_backend,
                "ok": report.ok,
                "rendered": report.render(),
            },
            "store": store_stats,
        },
        root_name="BENCH_jit_throughput.json",
    )
    assert report.ok, "warm jit regressed a wall clock past tolerance"
    # the committed BENCH_jit_throughput.json records >=5x on the
    # reference machine; keep the in-tree floor loose enough for
    # loaded CI runners while still catching a broken replay path
    assert aggregate >= 2.0, f"warm jit only {aggregate:.2f}x over reference"
    one_shot(benchmark, lambda: None)
