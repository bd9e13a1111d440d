"""Vectorized per-warp memory-coalescing analysis.

The GPU memory controller services a warp's global-memory request with
one transaction per distinct *segment* (128 bytes on the L1 path) the
warp's lanes touch, and moves data from DRAM at *sector* (32-byte)
granularity.  Figure 7 of the paper illustrates the three regimes this
module quantifies:

* coalesced — 32 lanes touch one 128-byte segment → 1 transaction;
* strided — each lane touches its own segment → 32 transactions;
* random — somewhere in between.

Everything here is pure address arithmetic on NumPy arrays: lane
addresses are reshaped to ``(warps, warp_size)``, masked lanes are
replaced by a sentinel, rows are sorted, and distinct values per row are
counted with a shifted comparison.  Whole-access distinct counts use the
same sort-and-compare in :func:`distinct_count`, which skips the sort
when the keys are already in order (a coalesced stream in warp order);
``np.unique`` builds a hash set since NumPy 2.3, which is several times
slower on these int64 keys.  For very large grids a deterministic warp
sample is analyzed and counts are rescaled, keeping cost bounded while
preserving the statistics of regular access patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AccessSummary",
    "lanes_to_warps",
    "distinct_count",
    "warp_distinct_counts",
    "segment_distinct_counts",
    "analyze_access",
    "MAX_ANALYZED_WARPS",
]

_SENTINEL = np.iinfo(np.int64).max

#: Above this many warps, transaction analysis samples every k-th warp.
MAX_ANALYZED_WARPS = 1 << 16


@dataclass(frozen=True)
class AccessSummary:
    """Coalescing statistics for one warp-wide access instruction.

    Counts are totals across the whole grid; when warp sampling was
    used they are unbiased rescalings (``sample_fraction`` < 1).
    """

    n_warps: int            #: warps with at least one active lane
    n_active_lanes: int     #: total active lanes
    transactions: float     #: distinct L1 segments summed over warps
    sectors: float          #: distinct 32B sectors summed over warps
    bursts: float           #: distinct 64B DRAM bursts summed over warps
    unique_sectors: float   #: distinct sectors across the whole access
    unique_bursts: float    #: distinct 64B bursts across the whole access
    bytes_requested: int    #: useful bytes (active lanes x itemsize)
    sample_fraction: float  #: fraction of warps actually analyzed

    @property
    def transactions_per_warp(self) -> float:
        return self.transactions / self.n_warps if self.n_warps else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready projection for activity payloads and metrics."""
        return {
            "n_warps": self.n_warps,
            "n_active_lanes": self.n_active_lanes,
            "transactions": self.transactions,
            "sectors": self.sectors,
            "bytes_requested": self.bytes_requested,
            "transactions_per_warp": self.transactions_per_warp,
            "bus_utilization": self.bus_utilization,
            "sample_fraction": self.sample_fraction,
        }

    @property
    def bus_utilization(self) -> float:
        """Useful bytes / bytes moved at sector granularity (≤ 1)."""
        moved = self.sectors * 32
        return self.bytes_requested / moved if moved else 0.0

    @property
    def dram_burst_factor(self) -> float:
        """DRAM overfetch of scattered sectors (1.0 dense .. 2.0 isolated).

        The minimum DRAM burst is 64 bytes on HBM2/GDDR, i.e. two 32-byte
        sectors; a request stream of isolated sectors therefore moves
        twice its sector bytes from DRAM.  Computed over the *distinct*
        sectors/bursts of the whole access, so segment-boundary sharing
        between neighbouring warps (misaligned streams) is not
        over-penalized, while genuinely isolated sectors (strided
        streams) are.
        """
        if not self.unique_sectors:
            return 1.0
        return min(max(2.0 * self.unique_bursts / self.unique_sectors, 1.0), 2.0)


def lanes_to_warps(
    values: np.ndarray,
    mask: np.ndarray | None,
    warp_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reshape flat per-lane data to ``(warps, warp_size)`` with padding.

    Returns the padded 2-D values and the matching boolean activity
    mask.  Lanes beyond the end of the grid pad out the last warp and
    are marked inactive.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != n:
            raise ValueError(f"mask length {mask.shape[0]} != lanes {n}")
    n_warps = -(-n // warp_size) if n else 0
    pad = n_warps * warp_size - n
    if pad:
        values = np.concatenate([values, np.zeros(pad, dtype=values.dtype)])
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    return values.reshape(n_warps, warp_size), mask.reshape(n_warps, warp_size)


def distinct_count(keys: np.ndarray) -> int:
    """Number of distinct values in ``keys`` (any shape), by sorting.

    Equals ``np.unique(keys).size``.  Keys already in non-decreasing
    order are counted without the sort.
    """
    flat = np.asarray(keys).reshape(-1)
    if flat.size == 0:
        return 0
    if (flat[1:] < flat[:-1]).any():
        flat = np.sort(flat)
    return 1 + int(np.count_nonzero(flat[1:] != flat[:-1]))


def warp_distinct_counts(keys2d: np.ndarray, mask2d: np.ndarray) -> np.ndarray:
    """Count distinct key values per row, considering only masked-in lanes.

    The workhorse of both transaction counting and (via composite keys)
    bank-conflict analysis: sort each row with inactive lanes pushed to
    a sentinel, then count positions where the sorted value changes.
    """
    if keys2d.size == 0:
        return np.zeros(keys2d.shape[0], dtype=np.int64)
    work = np.where(mask2d, keys2d, _SENTINEL)
    work.sort(axis=1)
    valid = work != _SENTINEL
    firsts = valid[:, :1].astype(np.int64)
    if work.shape[1] == 1:
        return firsts[:, 0]
    changed = valid[:, 1:] & (work[:, 1:] != work[:, :-1])
    return firsts[:, 0] + changed.sum(axis=1, dtype=np.int64)


def segment_distinct_counts(
    a2d: np.ndarray,
    m2d: np.ndarray,
    granularity: int,
    itemsize: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-warp distinct segment counts at one granularity.

    An element whose last byte lands in a different segment than its
    first counts against both (the misaligned-access inflation of paper
    §IV-C).  Returns ``(per_warp_counts, keys, keys_mask)`` — the keys
    are reused by callers that also need whole-access distinct values.
    """
    first = a2d // granularity
    last = (a2d + (itemsize - 1)) // granularity
    if (first != last).any():
        keys = np.concatenate([first, last], axis=1)
        kmask = np.concatenate([m2d, m2d], axis=1)
    else:
        keys, kmask = first, m2d
    return warp_distinct_counts(keys, kmask), keys, kmask


def _select_sample(
    n_warps: int, limit: int
) -> tuple[slice | np.ndarray, float]:
    """Deterministic warp sample preserving local adjacency.

    Takes contiguous chunks of warps spread evenly across the grid
    (rather than a strided sample): per-warp statistics stay unbiased
    for regular access patterns, while neighbouring warps inside each
    chunk still share segment boundaries, which keeps the distinct-
    sector/burst dedup honest for misaligned streams.
    """
    if n_warps <= limit:
        return slice(None), 1.0
    chunk = min(256, limit)
    n_chunks = max(limit // chunk, 1)
    starts = np.linspace(0, n_warps - chunk, n_chunks).astype(np.int64)
    idx = (starts[:, None] + np.arange(chunk)).reshape(-1)
    idx = np.unique(idx)  # chunks may overlap on small grids
    return idx, idx.size / n_warps


def analyze_access(
    addrs: np.ndarray,
    mask: np.ndarray | None,
    itemsize: int,
    *,
    warp_size: int = 32,
    transaction_bytes: int = 128,
    sector_bytes: int = 32,
    max_analyzed_warps: int = MAX_ANALYZED_WARPS,
) -> AccessSummary:
    """Analyze one access instruction's lane byte-addresses.

    Each active lane reads/writes ``itemsize`` bytes starting at its
    address; an element straddling a segment boundary counts against
    both segments, which is how misaligned accesses inflate the
    transaction count (paper §IV-C).
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    a2d, m2d = lanes_to_warps(addrs, mask, warp_size)
    n_warps_total = int(m2d.any(axis=1).sum())
    n_active = int(m2d.sum())
    if n_warps_total == 0:
        return AccessSummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 1.0)

    sel, fraction = _select_sample(a2d.shape[0], max_analyzed_warps)
    a = a2d[sel]
    m = m2d[sel]

    seg_counts, _, _ = segment_distinct_counts(a, m, transaction_bytes, itemsize)
    transactions = float(seg_counts.sum())

    sec_counts, sec_keys, sec_mask = segment_distinct_counts(
        a, m, sector_bytes, itemsize
    )
    sectors = float(sec_counts.sum())

    burst_bytes = 2 * sector_bytes
    b_counts, b_keys, b_mask = segment_distinct_counts(a, m, burst_bytes, itemsize)
    bursts = float(b_counts.sum())

    unique_sectors = float(distinct_count(sec_keys[sec_mask]))
    unique_bursts = float(distinct_count(b_keys[b_mask]))

    scale = 1.0 / fraction
    return AccessSummary(
        n_warps=n_warps_total,
        n_active_lanes=n_active,
        transactions=transactions * scale,
        sectors=sectors * scale,
        bursts=bursts * scale,
        unique_sectors=unique_sectors * scale,
        unique_bursts=unique_bursts * scale,
        bytes_requested=n_active * itemsize,
        sample_fraction=fraction,
    )
