"""Host-time benchmark of the simulator: Table I and serve cache hits.

Usage, from the root of a checkout::

    python3 benchmarks/perf/run.py --workload table1-warm --seed 0 \\
        --seconds 20 --trace 0
    python3 benchmarks/perf/run.py compare before.ndjson after.ndjson
    python3 benchmarks/perf/run.py golden

A run measures one workload for ``--seconds`` on one CPU, reports its
times on the CPU-speed scale of ``hostspeed.py``, checks every output
against the golden digests in ``spec.json``, appends one JSON record
(metrics, raw samples, environment block) to ``--records``, and prints
as its last line ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``; serve-hits
adds its request latencies) or every per-layer metric (``--trace 1``).
``BENCHMARK.json`` names the Table I workloads only; serve-hits is run
and compared by hand (see the README).  It exits 1 when any output was
wrong, and 2 without a result when the checkout has no program source.

``compare`` judges two record files against the bounds in
``BENCHMARK.json``; ``golden`` prints freshly computed digests for
``spec.json`` (a deliberate model change re-records them).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from benchmarks.perf.hostspeed import REFERENCE_S, SpeedSampler, pin  # noqa: E402
from benchmarks.perf.stats import pair_wins, quartiles, verdict  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    TABLE1, WORKLOADS, Context, child_env, launcher_argv, row_digest,
    run_child, run_serve, run_table1, table1_pass,
)

SPEC = Path(__file__).resolve().with_name("spec.json")
OUT_DIR = ROOT / ".perf-out"
RECORD_SCHEMA = "repro-perf-record/1"

#: environment fields that must agree for two runs to be comparable
COMPARABLE_ENV = ("python", "numpy", "cpu_model", "nproc", "fs_type",
                  "speed_reference_s", "backend", "jit_store")


def end_to_end(workload: str) -> list[dict[str, Any]]:
    """The end-to-end metrics a run of ``workload`` reports: those of
    ``BENCHMARK.json``, and on serve-hits the request latencies of
    ``spec.json`` (``serve_end_to_end``)."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if workload in TABLE1:
        return metrics
    return [*metrics, *json.loads(SPEC.read_text())["serve_end_to_end"]]


# ----------------------------------------------------------------------
# environment block
# ----------------------------------------------------------------------
def _git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (the
    existence check keeps git from searching parent directories)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _src_digest() -> str:
    """SHA-256 over the program's Python sources (path and bytes)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best, fs = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fs
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fs = point, fields[2]
    return fs


def environment(tmp: Path, seed: int, nproc: int,
                workload_env: dict[str, Any]) -> dict[str, Any]:
    """The record's environment block; ``nproc`` counts the CPUs the run
    could use before it pinned itself to one."""
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "fs_type": _fs_type(tmp),
        "speed_reference_s": REFERENCE_S,
        "seed": seed,
        **workload_env,
    }


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _temp_root(name: str) -> Path:
    tmp = ROOT / ".perf-tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def _cleanup(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.parent.rmdir()
    except OSError:
        pass


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"perf: no program source under {ROOT / 'src'}; run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        return 2
    if args.trace:
        defs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    else:
        defs = end_to_end(args.workload)
    spec = json.loads(SPEC.read_text())
    nproc = len(os.sched_getaffinity(0))
    pin()
    tmp = _temp_root(args.workload)
    try:
        # end-to-end times are put on the benchmark's scale by the speed
        # the sampler measures; traced runs report no end-to-end times
        sampler = nullcontext() if args.trace else SpeedSampler(tmp / "speed.txt")
        with sampler as speed:
            ctx = Context(tmp, args.seed, args.seconds, spec, child_env(tmp), speed)
            if args.workload in TABLE1:
                out = run_table1(ctx, args.workload, trace=bool(args.trace))
            else:
                out = run_serve(ctx, trace=bool(args.trace))
        env = environment(tmp, args.seed, nproc, out.env)
    finally:
        _cleanup(tmp)

    metrics = {m["name"]: out.metrics[m["name"]] for m in defs}
    correct = (
        out.failed == 0 and out.claims_failed == 0 and not any(out.exit_codes)
    )
    record = {
        "schema": RECORD_SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_frac": out.failed / out.attempted if out.attempted else 0.0,
        "claims_checked": out.claims_checked,
        "claims_failed": out.claims_failed,
        "daemon_exit_codes": out.exit_codes,
        "metrics": metrics,
        "samples": out.samples,
        "env": env,
    }
    records = Path(args.records)
    records.parent.mkdir(parents=True, exist_ok=True)
    with records.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace.json"
        trace_path.write_text(json.dumps({"traceEvents": out.events}))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in defs
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _load_records(path: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced records of a file, grouped by workload."""
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("schema") == RECORD_SCHEMA and not rec["trace"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(path_a: Path, path_b: Path) -> int:
    """Per workload and end-to-end metric: medians, quartiles, verdict,
    and how many same-seed pairs B won.

    Exits 1 when any metric is ``worse``, the failed share grew, or the
    environments differ (``MISMATCH``).
    """
    side_a, side_b = _load_records(path_a), _load_records(path_b)
    status = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'B worse by':>10} {'bound':>6} "
          f"{'B won':>6}  verdict")
    for workload in WORKLOADS:
        a, b = side_a.get(workload), side_b.get(workload)
        if not a or not b:
            if a or b:
                print(f"{workload:<14} only in {'A' if a else 'B'}")
            continue
        for m in end_to_end(workload):
            va = [r["metrics"][m["name"]] for r in a]
            vb = [r["metrics"][m["name"]] for r in b]
            v, worse_by = verdict(va, vb, better=m["better"], bound=m["bound"])
            if v == "worse":
                status = 1
            won, pairs = pair_wins(
                *({r["seed"]: r["metrics"][m["name"]] for r in side}
                  for side in (a, b)),
                better=m["better"],
            )
            print(f"{workload:<14} {m['name']:<12} {_fmt(va):<30} {_fmt(vb):<30} "
                  f"{worse_by:>+10.1%} {m['bound']:>6.0%} "
                  f"{f'{won}/{pairs}':>6}  {v}")
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        grew = fb > fa
        if grew:
            status = 1
        print(f"{workload:<14} {'failed share':<12} {fa:<30.4g} {fb:<30.4g} "
              f"{'':>10} {'0':>6} {'':>6}  {'worse' if grew else 'same'}")
        for key in COMPARABLE_ENV:
            ea = sorted({str(r["env"].get(key)) for r in a})
            eb = sorted({str(r["env"].get(key)) for r in b})
            if ea != eb or len(ea) > 1:
                status = 1
                print(f"{workload:<14} MISMATCH env {key}: A {ea} B {eb}")
    return status


# ----------------------------------------------------------------------
# golden
# ----------------------------------------------------------------------
def golden() -> int:
    """Print the digests ``spec.json`` should hold for this source tree."""
    spec = json.loads(SPEC.read_text())
    tmp = _temp_root("golden")
    try:
        ctx = Context(tmp, 0, 0.0, spec, child_env(tmp))
        (tmp / "sizes.json").write_text(json.dumps(spec["table1_sizes"]))
        doc = table1_pass(ctx, "golden", "reference", traced=False).doc
        rows = {
            r["benchmark"]: row_digest(r)
            for r in json.loads(doc.read_text())["results"]
        }
        served = {}
        for bench, value in spec["serve_points"]:
            out = tmp / f"{bench}-{value}.json"
            code = run_child(
                launcher_argv("sweep", bench, "--values", str(value),
                              "--out", str(out)),
                ctx=ctx, log=tmp / "sweep.log",
            ).code
            if code != 0:
                print(f"golden: sweep {bench} {value} exited {code}",
                      file=sys.stderr)
                return 1
            served[f"{bench}:{value}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    finally:
        _cleanup(tmp)
    print(json.dumps({"table1_rows": rows, "serve_results": served}, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", type=Path, help="records of the baseline side")
        p.add_argument("b", type=Path, help="records of the candidate side")
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b)
    if argv[:1] == ["golden"]:
        return golden()
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--records", default=str(OUT_DIR / "records.ndjson"),
                   help="append this run's JSON record here")
    return run(p.parse_args(argv))


def cli() -> int:
    """Entry point.  SIGTERM unwinds like an exception, so every program
    process the run started is stopped and reaped before it exits."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return main()


if __name__ == "__main__":
    raise SystemExit(cli())
