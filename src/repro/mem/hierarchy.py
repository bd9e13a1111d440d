"""Memory-hierarchy traffic resolution.

Takes the :class:`~repro.mem.trace.AccessTrace` recorded during a kernel
launch and resolves it against a :class:`~repro.arch.spec.GPUSpec` into
level-by-level traffic: L1 transactions and hits, L2 sector accesses and
hits, and finally DRAM bytes.  The result feeds the roofline timing
model.

Modelling choices (see DESIGN.md §5):

* **L1** is simulated per *window warp*: each warp's program-order line
  stream runs through an LRU cache sized to the warp's fair share of
  the SM's L1 (``l1_size / resident_warps_per_sm``).  Global *stores*
  bypass L1 (NVIDIA L1s are write-through, no-allocate); on
  architectures with ``global_loads_cached_in_l1=False`` (Kepler) loads
  bypass it too, and only the texture path is cached on-SM.
* **L2** is simulated over the interleaved stream of window-warp
  sectors that missed (or bypassed) L1, through an LRU scaled by the
  window fraction so footprint/capacity ratios are preserved.
* **DRAM** traffic is the L2 miss sectors, rescaled from the window to
  the whole grid using each record's exact grid-total sector count.
* **Constant memory** is not resolved here: its cost is serialization
  at issue time and its footprint is assumed resident in the 64 KiB
  constant cache after first touch.

Every cache here is a :class:`~repro.mem.cache.BatchedLRU`: the window
warps' L1s are one instance with a block of sets per warp, and each
record's stream goes through in one call, exactly as one
:class:`~repro.mem.cache.LRUCache` access per line would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.spec import GPUSpec
from repro.mem.cache import BatchedLRU
from repro.mem.trace import AccessTrace

__all__ = ["TrafficReport", "resolve_traffic"]

_SENTINEL = np.iinfo(np.int64).max


@dataclass
class TrafficReport:
    """Level-by-level memory traffic for one kernel launch."""

    bytes_requested: float = 0.0   #: useful bytes (active lanes x itemsize)
    transactions: float = 0.0      #: L1-segment transactions, grid total

    l1_lookups: float = 0.0        #: line lookups that went through L1
    l1_hits: float = 0.0

    l2_sectors: float = 0.0        #: sector requests arriving at L2
    l2_hits: float = 0.0

    dram_sectors: float = 0.0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    #: DRAM read bytes that travelled the uncached (L1-bypass) path —
    #: the timing model derates their bandwidth on Kepler-class parts.
    dram_uncached_read_bytes: float = 0.0

    tex_lookups: float = 0.0
    tex_hits: float = 0.0

    #: issue-weighted average load-to-use latency in cycles
    avg_load_latency_cycles: float = 0.0

    per_space: dict[str, float] = field(default_factory=dict)

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_lookups if self.l1_lookups else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_sectors if self.l2_sectors else 0.0

    def as_dict(self) -> dict[str, float | dict[str, float]]:
        """JSON-ready projection for metrics documents."""
        return {
            "bytes_requested": self.bytes_requested,
            "transactions": self.transactions,
            "l1_lookups": self.l1_lookups,
            "l1_hits": self.l1_hits,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_sectors": self.l2_sectors,
            "l2_hits": self.l2_hits,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_sectors": self.dram_sectors,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "dram_bytes": self.dram_bytes,
            "dram_uncached_read_bytes": self.dram_uncached_read_bytes,
            "tex_lookups": self.tex_lookups,
            "tex_hits": self.tex_hits,
            "avg_load_latency_cycles": self.avg_load_latency_cycles,
            "per_space_bytes": dict(self.per_space),
        }


def _warp_ids(
    addrs: np.ndarray, mask: np.ndarray, itemsize: int, granularity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each window warp's distinct ``granularity``-byte block ids.

    Returns ``(ids, warps)``: the ids sorted within each warp, warps in
    order — each warp's ``np.unique`` list, concatenated — and the warp
    of each id.  An item straddling a boundary touches the blocks of
    its first and last byte.  One row-wise sort does every warp: both
    ends of every lane side by side, inactive lanes pushed to a
    sentinel, then the first id of each run.
    """
    ids = np.concatenate(
        [addrs // granularity, (addrs + (itemsize - 1)) // granularity], axis=1
    )
    ids[~np.concatenate([mask, mask], axis=1)] = _SENTINEL
    ids.sort(axis=1)
    keep = ids != _SENTINEL
    keep[:, 1:] &= ids[:, 1:] != ids[:, :-1]
    return ids[keep], np.nonzero(keep)[0]


def resolve_traffic(
    trace: AccessTrace,
    gpu: GPUSpec,
    *,
    resident_warps_per_sm: int,
) -> TrafficReport:
    """Resolve an access trace into per-level traffic.

    Parameters
    ----------
    trace:
        Program-ordered records from one kernel launch.
    gpu:
        Architecture to resolve against (cache sizes, bypass flags).
    resident_warps_per_sm:
        From the occupancy calculation; sets each warp's fair share of
        the L1 and texture caches.
    """
    report = TrafficReport()
    if not trace.records:
        return report

    line_bytes = gpu.transaction_bytes
    sector_bytes = gpu.sector_bytes
    rw = max(int(resident_warps_per_sm), 1)

    # One cache per window warp, each the warp's fair share of the SM.
    nw = trace.window_warps
    l1_share = max(gpu.l1_size // line_bytes // rw, 1)
    tex_share = max(gpu.texture_cache_size // line_bytes // rw, 1)
    l1 = BatchedLRU(l1_share, ways=4, caches=nw)
    tex = (
        BatchedLRU(tex_share, ways=4, caches=nw)
        if gpu.texture_cache_dedicated
        else l1  # unified path: texture shares the L1 model
    )

    # The window competes for L2 with the other *co-resident* warps, not
    # with the whole grid: warps scheduled long after the window's have
    # already evicted each other's lines, so scaling by grid size would
    # starve the window below a single access's footprint on large
    # launches.  Scale capacity by window / resident warps instead.
    resident_total = gpu.sm_count * rw
    effective_warps = max(min(trace.n_grid_warps, resident_total), trace.window_warps)
    frac = trace.window_warps / effective_warps
    l2_capacity = max(int(gpu.l2_size / sector_bytes * frac), 8)
    l2 = BatchedLRU(l2_capacity, ways=16)

    lat_weight = 0.0
    lat_cycles = 0.0

    for rec in trace.records:
        if rec.space == "constant":
            # Constant traffic is modelled at issue time; assume the
            # (small) constant bank is cache-resident after first touch.
            report.per_space["constant"] = report.per_space.get(
                "constant", 0.0
            ) + rec.summary.bytes_requested
            continue

        report.bytes_requested += rec.summary.bytes_requested
        report.transactions += rec.summary.transactions
        report.per_space[rec.space] = (
            report.per_space.get(rec.space, 0.0) + rec.summary.bytes_requested
        )

        if rec.space == "texture":
            cached_on_sm = True
            cache = tex
        else:
            cached_on_sm = gpu.global_loads_cached_in_l1 and not rec.is_store
            cache = l1

        lines, line_warps = _warp_ids(
            rec.window_addrs, rec.window_mask, rec.itemsize, line_bytes
        )
        sectors, sector_warps = _warp_ids(
            rec.window_addrs, rec.window_mask, rec.itemsize, sector_bytes
        )

        # --- on-SM cache stage ----------------------------------------
        window_lines = lines.size
        window_l1_hits = 0
        window_l2 = sectors
        if cached_on_sm and window_lines:
            hit, _ = cache.access(cache.set_index(lines, line_warps), lines)
            window_l1_hits = int(np.count_nonzero(hit))
            # The sectors of each (warp, line) that missed, in warp-major
            # order; a line is keyed by its rank among the record's lines.
            distinct, rank = np.unique(lines, return_inverse=True)
            missed = line_warps[~hit] * distinct.size + rank[~hit]
            sector_keys = sector_warps * distinct.size + np.searchsorted(
                distinct, sectors // gpu.sectors_per_transaction
            )
            window_l2 = sectors[np.isin(sector_keys, missed)]

        # Rescale window observations to grid totals using the exact
        # grid-total sector count from the coalescing summary.
        window_sector_total = sectors.size
        scale = (
            rec.summary.sectors / window_sector_total
            if window_sector_total
            else 0.0
        )

        if cached_on_sm and window_lines:
            grid_lines = rec.summary.transactions  # line lookups ~ transactions
            hit_frac = window_l1_hits / window_lines
            if rec.space == "texture" and gpu.texture_cache_dedicated:
                report.tex_lookups += grid_lines
                report.tex_hits += grid_lines * hit_frac
            else:
                report.l1_lookups += grid_lines
                report.l1_hits += grid_lines * hit_frac

        # --- L2 stage ----------------------------------------------------
        l2_hit, w_dirtied = l2.access(
            l2.set_index(window_l2), window_l2, write=rec.is_store
        )
        w_l2_acc = window_l2.size
        w_l2_hit = int(np.count_nonzero(l2_hit))
        grid_l2 = w_l2_acc * scale
        grid_l2_hits = w_l2_hit * scale

        report.l2_sectors += grid_l2
        report.l2_hits += grid_l2_hits
        # Scattered sectors waste DRAM burst granularity (64B min burst).
        burst = rec.summary.dram_burst_factor
        if rec.is_store:
            # Stores don't read DRAM (sector writes need no fill); every
            # newly-dirtied sector is one eventual write-back.
            grid_dirtied = w_dirtied * scale
            report.dram_sectors += grid_dirtied
            report.dram_write_bytes += grid_dirtied * sector_bytes * burst
        else:
            grid_dram = (w_l2_acc - w_l2_hit) * scale
            report.dram_sectors += grid_dram
            dram_bytes = grid_dram * sector_bytes * burst
            report.dram_read_bytes += dram_bytes
            if not cached_on_sm:
                report.dram_uncached_read_bytes += dram_bytes

        # --- latency mix -------------------------------------------------
        if not rec.is_store and rec.summary.n_warps:
            n = rec.summary.n_warps
            l1_frac = (
                window_l1_hits / window_lines if cached_on_sm and window_lines else 0.0
            )
            l2_frac = (1.0 - l1_frac) * (w_l2_hit / w_l2_acc if w_l2_acc else 0.0)
            dram_frac = max(1.0 - l1_frac - l2_frac, 0.0)
            lat = (
                l1_frac * gpu.shared_latency_cycles
                + l2_frac * gpu.l2_latency_cycles
                + dram_frac * gpu.dram_latency_cycles
            )
            lat_cycles += lat * n
            lat_weight += n

    report.avg_load_latency_cycles = (
        lat_cycles / lat_weight if lat_weight else float(gpu.l2_latency_cycles)
    )
    return report
