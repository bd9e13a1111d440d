"""Per-layer metrics from the spans of a traced run.

Every value is *per operation* — per Table I regeneration on the
``table1-*`` workloads, per request on ``serve-hits`` — so runs that
fit a different number of operations into their time box compare
directly.  Ratios (``hit_frac``, ``calls_per_launch``) are taken over
the whole traced phase and are 0 when their denominator is 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def total_self_s(events: Iterable[dict[str, Any]]) -> float:
    """Σ self time of ``events``, in seconds."""
    return sum(e["args"]["self_us"] for e in events) / 1e6


def wrapper_overhead_s(
    events: Iterable[dict[str, Any]], cost_ns: dict[str, float]
) -> float:
    """What recording ``events`` cost, in seconds: each span at the
    per-span price its traced process measured (``wrapper_cost_ns``)."""
    return sum(
        cost_ns["cpu_span" if "cpu_us" in e["args"] else "span"] for e in events
    ) / 1e9


def layer_metrics(
    events: list[dict[str, Any]], ops: int, rows: Iterable[str]
) -> dict[str, float]:
    """Aggregate Chrome-trace span events of ``ops`` operations; ``rows``
    are the Table I benchmark names, one ``core.<name>_s`` metric each.

    Returns every per-layer metric except the two run-level ones
    (``unattributed_s``, ``trace_overhead_frac``), which need the
    traced wall time and are added by the workload.
    """
    layer: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    name: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for e in events:
        args = e["args"]
        dur = e["dur"] / 1e6
        for acc in (layer[e["cat"]], name[e["name"]]):
            acc["self"] += args["self_us"] / 1e6
            acc["dur"] += dur
            acc["calls"] += 1
            acc["note"] += args.get("note", 0)
            if "cpu_us" in args:
                # the thread clock's coarser accounting can read a
                # little past the span; that is no waiting
                acc["wait"] += max(0.0, dur - args["cpu_us"] / 1e6)

    def per(value: float) -> float:
        return _ratio(value, ops)

    m: dict[str, float] = {
        f"core.{n}_s": per(name[f"core.{n}"]["dur"]) for n in rows
    }
    for key in ("simt", "exec.global", "exec.shared", "mem.hierarchy",
                "timing", "host.engine", "jit.launch", "jit.store",
                "jit.codegen", "sched.cache", "resilience.journal",
                "resilience.lease", "serve.admit", "serve.queue",
                "serve.execute", "prof.render", "os.fsync"):
        m[f"{key}.self_s"] = per(layer[key]["self"])
    for key in ("sched.cache", "resilience.journal", "serve.queue"):
        m[f"{key}.wait_s"] = per(layer[key]["wait"])
    for key in ("exec.global", "exec.shared", "mem.hierarchy", "timing",
                "host.engine", "jit.codegen", "resilience.lease",
                "os.fsync", "os.replace"):
        m[f"{key}.calls"] = per(layer[key]["calls"])

    launches = layer["simt"]["calls"]
    hier = layer["mem.hierarchy"]
    lookups = name["ArtifactStore.lookup"]
    gets = name["ResultCache.get"]
    fsync = layer["os.fsync"]
    m.update({
        "simt.launches": per(launches),
        "mem.hierarchy.calls_per_launch": _ratio(hier["calls"], launches),
        "mem.hierarchy.warp_records": per(hier["note"]),
        "mem.hierarchy.ns_per_warp_record": _ratio(hier["self"] * 1e9, hier["note"]),
        "jit.store.lookups": per(lookups["calls"]),
        "jit.store.hit_frac": _ratio(lookups["note"], lookups["calls"]),
        "sched.cache.gets": per(gets["calls"]),
        "sched.cache.puts": per(name["ResultCache.put"]["calls"]),
        "sched.cache.hit_frac": _ratio(gets["note"], gets["calls"]),
        "resilience.journal.records": per(layer["resilience.journal"]["calls"]),
        "os.fsync.per_op": _ratio(fsync["self"], fsync["calls"]),
    })
    return m
