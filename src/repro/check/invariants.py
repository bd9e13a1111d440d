"""Physical-invariant registry over exported metrics documents.

The simulator's counters obey conservation laws the real hardware also
obeys: a kernel cannot move fewer transactions than its useful bytes
require, efficiencies and occupancy are fractions, DRAM traffic flows
through L2, bank conflicts only ever *add* passes.  Each invariant here
is a named rule over one kernel entry of a ``repro-prof-metrics/1``
document (or over the result rows of a ``repro-prof-bench/1``
document), so any run, sweep, saved baseline, or cached scheduler
payload can be audited without re-executing it.

Register new rules with :func:`invariant`; ``repro check`` runs the
whole registry via :func:`check_document`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.check.report import CheckOutcome
from repro.common.errors import ReproError

__all__ = [
    "invariant",
    "KERNEL_INVARIANTS",
    "check_kernel_entry",
    "check_bench_row",
    "check_sweep",
    "check_document",
    "check_cache_dir",
]

#: relative slack for counter comparisons: the analyzers estimate large
#: grids from a deterministic warp sample, so totals are scaled counts.
REL_TOL = 0.02

KernelRule = Callable[[str, Mapping[str, Any], Mapping[str, Any]], list[str]]

#: name -> (rule, docstring) over one kernel entry
KERNEL_INVARIANTS: dict[str, KernelRule] = {}


def invariant(name: str) -> Callable[[KernelRule], KernelRule]:
    """Register a kernel-entry invariant under ``name``."""

    def register(fn: KernelRule) -> KernelRule:
        if name in KERNEL_INVARIANTS:
            raise ReproError(f"duplicate invariant {name!r}")
        KERNEL_INVARIANTS[name] = fn
        return fn

    return register


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# ----------------------------------------------------------------------
# Kernel-entry rules.  Each returns a list of violation messages; []
# means the invariant holds.  ``gpu`` is the document's architecture
# block (older documents may miss newer keys — default conservatively).
# ----------------------------------------------------------------------

@invariant("counters-finite-nonnegative")
def _counters_sane(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    bad = []
    for key, value in entry.get("counters", {}).items():
        if not _finite(value):
            bad.append(f"counter {key} = {value!r} is not finite")
        elif value < 0:
            bad.append(f"counter {key} = {value:g} is negative")
    return bad


@invariant("geometry-consistent")
def _geometry(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    c = entry.get("counters", {})
    grid = entry.get("grid", [1, 1, 1])
    block = entry.get("block", [1, 1, 1])
    blocks = grid[0] * grid[1] * grid[2]
    threads = blocks * block[0] * block[1] * block[2]
    warp = int(gpu.get("warp_size", 32))
    bad = []
    if c.get("blocks") != blocks:
        bad.append(f"counters.blocks {c.get('blocks')} != grid size {blocks}")
    if c.get("threads") != threads:
        bad.append(
            f"counters.threads {c.get('threads')} != grid*block {threads}"
        )
    warps = c.get("warps", 0)
    min_warps = blocks * math.ceil((block[0] * block[1] * block[2]) / warp)
    if warps < min_warps:
        bad.append(
            f"counters.warps {warps} below block-padded minimum {min_warps}"
        )
    return bad


@invariant("transactions-lower-bound")
def _txn_lower_bound(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    c = entry.get("counters", {})
    txn_bytes = float(gpu.get("transaction_bytes", 128))
    transactions = float(c.get("transactions", 0.0))
    bytes_requested = float(c.get("bytes_requested", 0.0))
    requests = float(c.get("global_requests", 0.0))
    bad = []
    ideal = bytes_requested / txn_bytes
    if transactions < ideal * (1.0 - REL_TOL) - 1.0:
        bad.append(
            f"transactions {transactions:g} below the perfectly-coalesced "
            f"lower bound {ideal:g} ({bytes_requested:g} useful bytes / "
            f"{txn_bytes:g}B segments)"
        )
    if bytes_requested > 0 and transactions <= 0:
        bad.append(
            f"moved {bytes_requested:g} useful bytes with zero transactions"
        )
    if requests > 0 and transactions < requests * (1.0 - REL_TOL):
        bad.append(
            f"transactions {transactions:g} below one per warp request "
            f"({requests:g} requests)"
        )
    return bad


@invariant("sectors-cover-bytes")
def _sector_cover(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    c = entry.get("counters", {})
    sector_bytes = float(gpu.get("sector_bytes", 32))
    warp = float(gpu.get("warp_size", 32))
    sectors = float(c.get("sectors_requested", 0.0))
    bytes_requested = float(c.get("bytes_requested", 0.0))
    bad = []
    if bytes_requested > 0 and sectors <= 0:
        bad.append(
            f"moved {bytes_requested:g} useful bytes with zero sectors"
        )
    # A broadcast access serves every active lane from one sector, so
    # useful bytes can exceed sector capacity — but never by more than
    # the warp width (each sector feeds at most one warp per access).
    elif bytes_requested > sectors * sector_bytes * warp * (1.0 + REL_TOL):
        bad.append(
            f"useful bytes {bytes_requested:g} exceed broadcast-limited "
            f"sector capacity {sectors:g} x {sector_bytes:g}B x {warp:g}"
        )
    return bad


@invariant("efficiencies-are-fractions")
def _efficiency_ranges(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    bad = []
    for key in (
        "warp_execution_efficiency",
        "branch_efficiency",
        "shared_efficiency",
        "achieved_occupancy",
    ):
        value = entry.get("metrics", {}).get(key)
        if value is None:
            continue
        if not _finite(value) or value < 0.0 or value > 1.0 + 1e-9:
            bad.append(f"{key} = {value!r} outside [0, 1]")
    # Broadcast reuse can push load efficiency past 1, but never past
    # the warp width (every active lane served from one sector).
    warp = float(gpu.get("warp_size", 32))
    gld = entry.get("metrics", {}).get("gld_efficiency")
    if gld is not None and (not _finite(gld) or gld < 0.0 or gld > warp):
        bad.append(f"gld_efficiency = {gld!r} outside [0, warp_size={warp:g}]")
    return bad


@invariant("divergence-within-branches")
def _divergence(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    c = entry.get("counters", {})
    branches = float(c.get("branches", 0.0))
    divergent = float(c.get("divergent_branches", 0.0))
    if divergent > branches:
        return [
            f"divergent_branches {divergent:g} exceed total branches "
            f"{branches:g}"
        ]
    return []


@invariant("bank-conflicts-only-add")
def _bank_conflicts(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    c = entry.get("counters", {})
    requests = float(c.get("shared_requests", 0.0))
    passes = float(c.get("shared_passes", 0.0))
    extra = float(c.get("bank_conflict_extra", 0.0))
    bad = []
    if passes < requests * (1.0 - 1e-9):
        bad.append(
            f"shared_passes {passes:g} below shared_requests {requests:g} "
            "(a conflict-free access still takes one pass)"
        )
    if abs((passes - requests) - extra) > max(1e-6, REL_TOL * passes):
        bad.append(
            f"bank_conflict_extra {extra:g} inconsistent with passes-"
            f"requests {passes - requests:g}"
        )
    return bad


@invariant("traffic-conservation")
def _traffic(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    t = entry.get("traffic")
    if not isinstance(t, Mapping):
        return []
    bad = []
    for key in ("l1_hit_rate", "l2_hit_rate"):
        v = t.get(key)
        if v is not None and (not _finite(v) or v < 0 or v > 1 + 1e-9):
            bad.append(f"traffic.{key} = {v!r} outside [0, 1]")
    if float(t.get("l1_hits", 0)) > float(t.get("l1_lookups", 0)) * (1 + 1e-9):
        bad.append("traffic.l1_hits exceed l1_lookups")
    if float(t.get("l2_hits", 0)) > float(t.get("l2_sectors", 0)) * (1 + 1e-9):
        bad.append("traffic.l2_hits exceed l2_sectors")
    l2 = float(t.get("l2_sectors", 0.0))
    dram = float(t.get("dram_sectors", 0.0))
    if dram > l2 * (1.0 + REL_TOL):
        bad.append(
            f"traffic.dram_sectors {dram:g} exceed l2_sectors {l2:g} "
            "(DRAM traffic must traverse L2)"
        )
    reads = float(t.get("dram_read_bytes", 0.0))
    writes = float(t.get("dram_write_bytes", 0.0))
    total = float(t.get("dram_bytes", reads + writes))
    if abs(total - (reads + writes)) > max(1.0, REL_TOL * total):
        bad.append(
            f"traffic.dram_bytes {total:g} != read {reads:g} + write "
            f"{writes:g} (bytes-moved conservation)"
        )
    if float(t.get("dram_uncached_read_bytes", 0.0)) > reads * (1 + 1e-9):
        bad.append("traffic.dram_uncached_read_bytes exceed dram_read_bytes")
    return bad


@invariant("times-physical")
def _times(
    name: str, entry: Mapping[str, Any], gpu: Mapping[str, Any]
) -> list[str]:
    bad = []
    for key in ("time_total_s", "time_avg_s"):
        v = entry.get(key)
        if v is not None and (not _finite(v) or v < 0):
            bad.append(f"{key} = {v!r} is not a nonnegative finite time")
    for bound, v in entry.get("bounds_s", {}).items():
        if not _finite(v) or v < 0:
            bad.append(f"bounds_s.{bound} = {v!r} is not physical")
    return bad


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def check_kernel_entry(
    kernel: str,
    entry: Mapping[str, Any],
    gpu: Mapping[str, Any] | None = None,
    *,
    subject: str = "",
    backend: str = "",
) -> list[CheckOutcome]:
    """Run every registered invariant over one kernel's metrics block."""
    gpu = gpu or {}
    where = f"{subject}/{kernel}" if subject else kernel
    outcomes = []
    for name, rule in KERNEL_INVARIANTS.items():
        violations = rule(kernel, entry, gpu)
        outcomes.append(
            CheckOutcome(
                kind="invariant",
                subject=where,
                name=name,
                passed=not violations,
                detail="; ".join(violations),
                backend=backend,
            )
        )
    return outcomes


def check_bench_row(
    row: Mapping[str, Any], *, subject: str = "", backend: str = ""
) -> list[CheckOutcome]:
    """Sanity-check one benchmark result row (times, speedup algebra)."""
    name = subject or str(row.get("benchmark", "?"))
    bad: list[str] = []
    b = row.get("baseline_time_s")
    o = row.get("optimized_time_s")
    s = row.get("speedup")
    for key, v in (("baseline_time_s", b), ("optimized_time_s", o)):
        if not _finite(v) or v < 0:
            bad.append(f"{key} = {v!r} is not a nonnegative finite time")
    if _finite(b) and _finite(o) and o and _finite(s):
        expect = b / o
        if expect and abs(s - expect) > REL_TOL * expect:
            bad.append(
                f"speedup {s:g} inconsistent with times ratio {expect:g}"
            )
    if not isinstance(row.get("verified"), bool):
        bad.append(f"verified = {row.get('verified')!r} is not a bool")
    return [
        CheckOutcome(
            kind="invariant",
            subject=name,
            name="result-sanity",
            passed=not bad,
            detail="; ".join(bad),
            backend=backend,
        )
    ]


def check_sweep(
    sweep: Mapping[str, Any], *, subject: str = "", backend: str = ""
) -> list[CheckOutcome]:
    """Sanity-check a sweep block: finite positive times, aligned series."""
    name = subject or str(sweep.get("benchmark", "?"))
    bad: list[str] = []
    xs = sweep.get("x_values", [])
    for series, points in sweep.get("series", {}).items():
        if len(points) != len(xs):
            bad.append(
                f"series {series!r} has {len(points)} points for "
                f"{len(xs)} x-values"
            )
        for x, t in zip(xs, points):
            if not _finite(t) or t < 0:
                bad.append(f"series {series!r} at {x}: {t!r} is not physical")
                break
    return [
        CheckOutcome(
            kind="invariant",
            subject=name,
            name="sweep-sanity",
            passed=not bad,
            detail="; ".join(bad),
            backend=backend,
        )
    ]


def check_document(
    doc: Mapping[str, Any], *, subject: str = "", backend: str = ""
) -> list[CheckOutcome]:
    """Audit any exported document: structure first, then invariants.

    Dispatches on the document's schema: per-kernel invariants for
    ``repro-prof-metrics/1``, per-result and sweep sanity for
    ``repro-prof-bench/1``.  Structural problems reported by
    :func:`repro.prof.metrics.validate_document` become ``structure``
    outcomes so a malformed document fails loudly rather than passing
    vacuously.
    """
    from repro.prof.metrics import validate_document

    outcomes: list[CheckOutcome] = []
    problems = validate_document(doc)
    label = subject or str(doc.get("benchmark") or doc.get("schema") or "?")
    outcomes.append(
        CheckOutcome(
            kind="structure",
            subject=label,
            name="schema",
            passed=not problems,
            detail="; ".join(problems),
            backend=backend,
        )
    )
    if problems:
        return outcomes
    gpu = doc.get("gpu", {})
    for kernel, entry in doc.get("kernels", {}).items():
        outcomes.extend(
            check_kernel_entry(
                kernel, entry, gpu, subject=label, backend=backend
            )
        )
    for row in doc.get("results", []):
        if isinstance(row, Mapping):
            outcomes.extend(check_bench_row(row, backend=backend))
    sweep = doc.get("sweep")
    if isinstance(sweep, Mapping):
        outcomes.extend(check_sweep(sweep, subject=label, backend=backend))
    return outcomes


def check_cache_dir(cache_dir: str | Path) -> list[CheckOutcome]:
    """Audit every payload of a scheduler result cache.

    Cached payloads replay byte-identically into results, so a corrupt
    or physically-impossible entry would silently poison future warm
    runs; this walks the content-addressed store and applies the same
    result invariants a live run gets.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        raise ReproError(f"cache directory not found: {root}")
    outcomes: list[CheckOutcome] = []
    for path in sorted(root.glob("*/*.json")):
        if path.parent.name == "quarantine":
            # already detected, moved aside, and recomputed by the
            # cache itself — not a live entry
            continue
        label = f"cache:{path.name[:12]}"
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            outcomes.append(
                CheckOutcome(
                    kind="structure",
                    subject=label,
                    name="cache-entry",
                    passed=False,
                    detail=f"{path}: not valid JSON ({exc})",
                )
            )
            continue
        stored = entry.get("sha256")
        if stored is not None:
            from repro.sched.cache import _payload_checksum

            actual = _payload_checksum(entry.get("payload"))
            outcomes.append(
                CheckOutcome(
                    kind="structure",
                    subject=label,
                    name="cache-checksum",
                    passed=actual == stored,
                    detail=""
                    if actual == stored
                    else f"{path}: payload checksum mismatch",
                )
            )
            if actual != stored:
                continue
        payload = entry.get("payload", {})
        result = payload.get("result")
        if isinstance(result, Mapping):
            outcomes.extend(check_bench_row(result, subject=label))
    return outcomes
