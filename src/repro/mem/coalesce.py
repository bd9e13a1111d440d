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
addresses become ``(warps, warp_size)`` sector keys, masked lanes a
sentinel, and each row is sorted once.  Burst and segment keys are the
sector keys floor-divided, which keeps rows sorted, so one shifted
comparison per granularity counts the distinct values per row.
Whole-access distinct counts flatten the same keys and sort them only
when out of order (a coalesced stream in warp order is not);
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
    "analyze_access",
    "MAX_ANALYZED_WARPS",
]

_SENTINEL = np.iinfo(np.int64).max

_BURST_SECTORS = 2  #: sectors per 64-byte DRAM burst (``dram_burst_factor``)

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


def _in_order(flat: np.ndarray) -> np.ndarray:
    """``flat`` sorted, skipping the sort when it is already in order."""
    return np.sort(flat) if (flat[1:] < flat[:-1]).any() else flat


def _runs(ordered: np.ndarray) -> int:
    """Number of distinct values in a sorted vector."""
    return int(ordered.size and 1 + np.count_nonzero(ordered[1:] != ordered[:-1]))


def distinct_count(keys: np.ndarray) -> int:
    """Number of distinct values in ``keys`` (any shape), by sorting.

    Equals ``np.unique(keys).size``.  Keys already in non-decreasing
    order are counted without the sort.
    """
    return _runs(_in_order(np.asarray(keys).reshape(-1)))


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


def _per_transaction(transaction_bytes: int, sector_bytes: int) -> int:
    """Sectors per transaction; ``GPUSpec`` enforces the same rule."""
    if transaction_bytes % sector_bytes:
        raise ValueError(
            f"transaction_bytes {transaction_bytes} is not a multiple of "
            f"sector_bytes {sector_bytes}"
        )
    return transaction_bytes // sector_bytes


def _sector_keys(
    a2d: np.ndarray, m2d: np.ndarray, itemsize: int, sector_bytes: int
) -> np.ndarray:
    """Each warp's sector keys, sorted per row, inactive lanes last.

    An element whose last byte lands in another sector than its first
    counts against both (the misaligned-access inflation of paper
    §IV-C), so the last-byte keys are appended when any element
    straddles.  Inactive lanes hold a sentinel above every key.
    """
    keys = a2d // sector_bytes
    last = (a2d + (itemsize - 1)) // sector_bytes
    if (keys != last).any():
        keys = np.concatenate([keys, last], axis=1)
        m2d = np.concatenate([m2d, m2d], axis=1)
    if not m2d.all():
        keys[~m2d] = _SENTINEL
    keys.sort(axis=1)
    return keys


def _segment_totals(
    keys: np.ndarray, per_transaction: int, weights: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Distinct transactions, sectors and bursts per warp, summed.

    ``keys`` are :func:`_sector_keys`.  A coarser segment key is a sector
    key floor-divided by the sectors per segment, which keeps sorted
    rows sorted and a straddle's first and last keys exact, so one sort
    serves every granularity.  ``weights`` scales each row's counts.
    """
    padded = keys[:, -1] == _SENTINEL
    totals = []
    for factor in (per_transaction, 1, _BURST_SECTORS):
        segs = keys // factor if factor > 1 else keys
        changed = segs[:, 1:] != segs[:, :-1]
        if weights is None:  # one count over the matrix beats row sums
            unpadded = padded.size - np.count_nonzero(padded)
            totals.append(float(unpadded + np.count_nonzero(changed)))
        else:
            totals.append(float(((changed.sum(axis=1) + ~padded) * weights).sum()))
    return totals[0], totals[1], totals[2]


def _access_distinct(keys: np.ndarray) -> tuple[float, float]:
    """Distinct sectors and bursts of the whole access, from the valid
    entries of :func:`_sector_keys`."""
    flat = keys.reshape(-1)
    if keys[:, -1].max() == _SENTINEL:
        flat = flat[flat != _SENTINEL]
    flat = _in_order(flat)
    return float(_runs(flat)), float(_runs(flat // _BURST_SECTORS))


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
    per_transaction = _per_transaction(transaction_bytes, sector_bytes)
    addrs = np.asarray(addrs, dtype=np.int64)
    a2d, m2d = lanes_to_warps(addrs, mask, warp_size)
    n_warps_total = int(m2d.any(axis=1).sum())
    n_active = int(m2d.sum())
    if n_warps_total == 0:
        return AccessSummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 1.0)

    sel, fraction = _select_sample(a2d.shape[0], max_analyzed_warps)
    keys = _sector_keys(a2d[sel], m2d[sel], itemsize, sector_bytes)
    # transactions, sectors, bursts, unique sectors, unique bursts
    counts = (*_segment_totals(keys, per_transaction), *_access_distinct(keys))
    scale = 1.0 / fraction
    return AccessSummary(
        n_warps_total, n_active, *(c * scale for c in counts),
        bytes_requested=n_active * itemsize, sample_fraction=fraction,
    )
