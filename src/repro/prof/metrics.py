"""Machine-readable per-benchmark metrics: build, write, load, merge.

The exporter behind ``repro profile`` and the benchmark harness: one
JSON document per run, with a schema marker, the architecture the run
was resolved against, and a per-kernel block combining

* the nvprof-style metric set (:func:`repro.host.profiler.kernel_metrics`),
* the raw microarchitectural counters (:meth:`KernelStats.counters`),
* the resolved memory-hierarchy traffic and timing-model bounds, and
* the roofline classification.

``repro prof diff`` consumes two of these documents; the performance
doctor consumes the per-kernel entries directly instead of re-deriving
metrics from raw stats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.arch.spec import GPUSpec
from repro.common.durable import make_dirs
from repro.common.errors import ReproError
from repro.host.profiler import kernel_metrics
from repro.prof.roofline import classify_kernel, peak_lane_ops
from repro.simt.stats import KernelStats
from repro.timing.model import estimate_kernel_time
from repro.timing.occupancy import compute_occupancy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import SweepResult
    from repro.host.runtime import CudaLite
    from repro.resilience.supervisor import SchedTelemetry

__all__ = [
    "METRICS_SCHEMA",
    "BENCH_SCHEMA",
    "gpu_info",
    "kernel_entry",
    "collect_metrics",
    "merge_metrics",
    "execution_section",
    "sweep_document",
    "render_metrics",
    "write_metrics",
    "load_metrics",
    "validate_document",
]

METRICS_SCHEMA = "repro-prof-metrics/1"
BENCH_SCHEMA = "repro-prof-bench/1"


def gpu_info(gpu: GPUSpec) -> dict[str, Any]:
    """The architecture context a metrics document is resolved against."""
    return {
        "name": gpu.name,
        "compute_capability": list(gpu.compute_capability),
        "sm_count": gpu.sm_count,
        "warp_size": gpu.warp_size,
        "transaction_bytes": gpu.transaction_bytes,
        "sector_bytes": gpu.sector_bytes,
        "clock_hz": gpu.clock_hz,
        "dram_bandwidth_bytes_per_s": gpu.dram_bandwidth,
        "peak_fp32_flops": gpu.peak_fp32_flops,
        "peak_lane_ops_per_s": peak_lane_ops(gpu),
        "global_loads_cached_in_l1": gpu.global_loads_cached_in_l1,
        "l1_size": gpu.l1_size,
        "l2_size": gpu.l2_size,
    }


def kernel_entry(
    entries: Sequence[tuple[KernelStats, Any]],
    gpu: GPUSpec,
    *,
    include_timing: bool = True,
) -> dict[str, Any]:
    """Build one kernel's metrics block from its launch-log entries.

    ``entries`` is a non-empty list of ``(stats, op)`` pairs as logged
    by :class:`~repro.host.runtime.CudaLite`; ``op`` may be None when a
    caller only has statistics (the doctor's path).  Metrics are taken
    from the first launch, times aggregated over all of them.
    """
    if not entries:
        raise ReproError("kernel_entry needs at least one launch")
    stats = entries[0][0]
    times = [
        op.duration
        for _, op in entries
        if op is not None and op.duration is not None
    ]
    occ = compute_occupancy(
        gpu,
        stats.block.size,
        shared_mem_per_block=stats.shared_mem_per_block,
        registers_per_thread=stats.registers_per_thread,
        n_blocks=stats.blocks,
    )
    entry: dict[str, Any] = {
        "calls": len(entries),
        "time_total_s": float(sum(times)),
        "time_avg_s": float(sum(times) / len(times)) if times else 0.0,
        "grid": [stats.grid.x, stats.grid.y, stats.grid.z],
        "block": [stats.block.x, stats.block.y, stats.block.z],
        "metrics": kernel_metrics(stats, gpu),
        "counters": stats.counters(),
        "occupancy_limiter": occ.limiter,
    }
    if include_timing:
        timing = estimate_kernel_time(stats, gpu, launch_kind="none")
        entry["bounds_s"] = {k: float(v) for k, v in timing.bounds.items()}
        entry["limiter"] = timing.limiter
        if timing.traffic is not None:
            entry["traffic"] = timing.traffic.as_dict()
        roof = classify_kernel(
            stats,
            gpu,
            exec_s=timing.exec_s,
            dram_bytes=timing.traffic.dram_bytes if timing.traffic else None,
        )
        entry["roofline"] = roof.as_dict()
    return entry


def collect_metrics(
    rt: "CudaLite",
    *,
    benchmark: str | None = None,
    params: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Snapshot one runtime's launch log into a metrics document."""
    groups: dict[str, list] = {}
    for stats, op in rt.kernel_log:
        groups.setdefault(stats.name, []).append((stats, op))
    tl = rt.timeline
    t0, t1 = tl.span
    return {
        "schema": METRICS_SCHEMA,
        "benchmark": benchmark,
        "params": dict(params or {}),
        "system": rt.system.name,
        "gpu": gpu_info(rt.gpu),
        "device_time_s": rt.engine.now,
        "timeline": {
            "span_s": t1 - t0,
            "events": len(tl.events),
            "busy_s_by_lane": {lane: tl.busy_time(lane) for lane in tl.lanes()},
        },
        "kernels": {
            name: kernel_entry(entries, rt.gpu)
            for name, entries in sorted(groups.items())
        },
        # Backend provenance lives OUTSIDE the kernel counters: the
        # differential suite asserts counter equality across backends,
        # and these dispatch statistics legitimately differ.
        "execution": {
            "backend": rt.backend,
            **rt.dispatch.counters.as_dict(),
        },
    }


def merge_metrics(docs: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-runtime documents from one logical run.

    Benchmarks construct several runtimes internally (one per variant);
    a merged document keeps the first document's context and unions the
    kernel blocks, summing call counts and times for kernels that
    appear in more than one runtime.
    """
    if not docs:
        raise ReproError("merge_metrics needs at least one document")
    merged = dict(docs[0])
    kernels: dict[str, Any] = {}
    device_time = 0.0
    events = 0
    execution: dict[str, Any] = {}
    for doc in docs:
        device_time = max(device_time, doc.get("device_time_s", 0.0))
        events += doc.get("timeline", {}).get("events", 0)
        for key, value in doc.get("execution", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                execution[key] = execution.get(key, 0) + value
            else:
                execution.setdefault(key, value)
        for name, entry in doc.get("kernels", {}).items():
            if name not in kernels:
                kernels[name] = dict(entry)
            else:
                k = kernels[name]
                calls = k["calls"] + entry["calls"]
                k["time_total_s"] = k["time_total_s"] + entry["time_total_s"]
                k["calls"] = calls
                k["time_avg_s"] = k["time_total_s"] / calls if calls else 0.0
    merged["kernels"] = dict(sorted(kernels.items()))
    merged["device_time_s"] = device_time
    merged.setdefault("timeline", {})["events"] = events
    if execution:
        merged["execution"] = execution
    return merged


def execution_section(telemetry: SchedTelemetry | None) -> dict[str, Any]:
    """A result document's ``execution`` section, as a dict to merge in.

    Present only when the run degraded, so clean documents stay
    byte-identical across serial/parallel/cold/warm/resumed runs while
    a fallback (the one case where the configuration asked for was not
    what actually ran) is recorded next to the results it produced.
    ``telemetry`` is None for a run outside the scheduler.
    """
    if telemetry is None or not telemetry.fallbacks:
        return {}
    return {
        "execution": {
            "mode": telemetry.mode, "fallbacks": list(telemetry.fallbacks),
        }
    }


def sweep_document(
    benchmark: str,
    params: dict[str, Any],
    sweep: SweepResult,
    telemetry: SchedTelemetry | None,
) -> dict[str, Any]:
    """The result document of a figure sweep.

    ``repro sweep --out`` and a sweep served by ``repro serve`` are both
    built here, which keeps the two ``cmp``-identical.
    """
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "params": params,
        "sweep": sweep.as_dict(),
        **execution_section(telemetry),
    }


def render_metrics(doc: dict[str, Any]) -> str:
    """The canonical serialized form of a metrics document.

    One definition of the bytes, shared by :func:`write_metrics` (the
    CLI ``--out``/``--json`` files) and the ``repro serve`` result
    store — which is what makes a served result ``cmp``-identical to
    the same work exported by the command line.
    """
    doc = {"schema": METRICS_SCHEMA, **doc}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def write_metrics(path: str | Path, doc: dict[str, Any]) -> Path:
    """Serialize a metrics document (schema stamped if missing)."""
    path = Path(path)
    make_dirs(path.parent)
    path.write_text(render_metrics(doc))
    return path


def validate_document(doc: Any) -> list[str]:
    """Structural validation of an exported document; [] means valid.

    Knows the two document families: per-kernel metrics
    (``repro-prof-metrics/1``) and benchmark/suite/sweep results
    (``repro-prof-bench/1``).  The golden-baseline tests run every
    committed ``benchmarks/results/*.json`` through this.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    schema = doc.get("schema")
    if schema == METRICS_SCHEMA:
        kernels = doc.get("kernels")
        if not isinstance(kernels, dict):
            problems.append("metrics document has no 'kernels' object")
        else:
            for name, entry in kernels.items():
                for req in ("calls", "metrics", "counters"):
                    if req not in entry:
                        problems.append(f"kernel {name!r} missing {req!r}")
                counters = entry.get("counters")
                if isinstance(counters, dict):
                    for key, value in counters.items():
                        if not isinstance(value, (int, float)):
                            problems.append(
                                f"kernel {name!r} counter {key!r} is not numeric"
                            )
        if "gpu" in doc and not isinstance(doc["gpu"], dict):
            problems.append("'gpu' is not an object")
        execution = doc.get("execution")
        if execution is not None:
            if not isinstance(execution, dict) or "backend" not in execution:
                problems.append("'execution' section missing 'backend'")
    elif schema == BENCH_SCHEMA:
        results = doc.get("results")
        sweep = doc.get("sweep")
        if results is None and sweep is None:
            problems.append("bench document has neither 'results' nor 'sweep'")
        if results is not None:
            if not isinstance(results, list):
                problems.append("'results' is not a list")
            else:
                for i, r in enumerate(results):
                    for req in (
                        "benchmark",
                        "baseline_time_s",
                        "optimized_time_s",
                        "speedup",
                        "verified",
                    ):
                        if req not in r:
                            problems.append(f"results[{i}] missing {req!r}")
        if sweep is not None:
            if not isinstance(sweep, dict):
                problems.append("'sweep' is not an object")
            else:
                for req in ("x_name", "x_values", "series"):
                    if req not in sweep:
                        problems.append(f"'sweep' missing {req!r}")
                series = sweep.get("series")
                xs = sweep.get("x_values")
                if isinstance(series, dict) and isinstance(xs, list):
                    for name, points in series.items():
                        if len(points) != len(xs):
                            problems.append(
                                f"series {name!r} has {len(points)} points "
                                f"for {len(xs)} x-values"
                            )
    elif isinstance(schema, str) and schema.startswith("repro-prof-"):
        pass  # other families (e.g. scheduler stats) are free-form
    else:
        problems.append(f"unknown schema {schema!r}")
    return problems


def load_metrics(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a metrics document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(f"metrics file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not str(doc.get("schema", "")).startswith(
        "repro-prof-"
    ):
        raise ReproError(
            f"{path} is not a repro.prof metrics document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    return doc
