"""Residue-class fast paths for the per-warp memory analyses.

The interpreter's dominant cost is not the functional gather/scatter —
NumPy already vectorizes that — but the *per-warp* coalescing and
bank-conflict analysis, which sorts a ``(warps, warp_size)`` key matrix
on every access.  For the paper's benchmarks almost every access is
*affine*: each warp is fully convergent and its lanes step by one
common stride (coalesced streams, strided streams, column reads).

For such accesses the per-warp distinct-segment count at granularity
``B`` depends only on the warp's start address *modulo* ``B`` (shifting
a whole row by a multiple of ``B`` shifts every segment id by the same
integer, preserving distinctness).  Grouping warps by their start
address modulo ``M = lcm`` of all granularities therefore collapses the
grid to at most ``M`` *residue classes*; the reference helpers sort and
count one representative row per class and the counts are weighted by
class sizes.  Because the representatives are actual rows of the access
and the reference code path itself produces each class count, the fast
result is bit-identical to the reference result — by construction, not
by approximation.

Both analyzers return ``None`` when an access is not eligible (partial
warps, divergent masks, irregular strides); the dispatcher then falls
back to the reference implementation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mem.banks import BankConflictSummary, shared_pass_degrees
from repro.mem.coalesce import (
    MAX_ANALYZED_WARPS,
    AccessSummary,
    _BURST_SECTORS,
    _access_distinct,
    _per_transaction,
    _sector_keys,
    _segment_totals,
    _select_sample,
    lanes_to_warps,
)

__all__ = ["analyze_access_fast", "analyze_shared_access_fast"]


def _affine_rows(a2d: np.ndarray, m2d: np.ndarray) -> np.ndarray | None:
    """Return the fully-active rows if the access is affine, else None.

    Eligibility: every warp row is fully active or fully inactive
    (convergent — no partial masks), and all active rows share one
    intra-warp stride.  These are exactly the accesses whose per-warp
    statistics are determined by ``start % M``.
    """
    row_all = m2d.all(axis=1)
    if not np.array_equal(row_all, m2d.any(axis=1)):
        return None
    act = a2d[row_all]
    if act.shape[0] and act.shape[1] > 1:
        deltas = np.diff(act, axis=1)
        if (deltas != deltas[0, 0]).any():
            return None
    return act


def _class_representatives(
    starts: np.ndarray, modulus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one representative row per residue class + class sizes."""
    _, rep_idx, class_counts = np.unique(
        starts % modulus, return_index=True, return_counts=True
    )
    return rep_idx, class_counts


def analyze_access_fast(
    addrs: np.ndarray,
    mask: np.ndarray | None,
    itemsize: int,
    *,
    warp_size: int = 32,
    transaction_bytes: int = 128,
    sector_bytes: int = 32,
    max_analyzed_warps: int = MAX_ANALYZED_WARPS,
) -> AccessSummary | None:
    """Fast-path equivalent of :func:`repro.mem.coalesce.analyze_access`.

    Returns ``None`` for ineligible (non-affine) accesses; otherwise an
    :class:`AccessSummary` bit-identical to the reference analyzer's.
    """
    per_transaction = _per_transaction(transaction_bytes, sector_bytes)
    addrs = np.asarray(addrs, dtype=np.int64)
    a2d, m2d = lanes_to_warps(addrs, mask, warp_size)
    n_warps_total = int(m2d.any(axis=1).sum())
    n_active = int(m2d.sum())
    if n_warps_total == 0:
        return AccessSummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 1.0)

    # Identical deterministic warp sampling to the reference path.
    sel, fraction = _select_sample(a2d.shape[0], max_analyzed_warps)
    act = _affine_rows(a2d[sel], m2d[sel])
    if act is None:
        return None

    counts = (0.0,) * 5
    if act.shape[0]:
        modulus = math.lcm(transaction_bytes, _BURST_SECTORS * sector_bytes)
        rep_idx, class_counts = _class_representatives(act[:, 0], modulus)
        full = np.ones(act.shape, dtype=bool)
        rep_keys = _sector_keys(act[rep_idx], full[rep_idx], itemsize, sector_bytes)
        # Whole-access distinct sectors/bursts are global, not per-class.
        counts = (
            *_segment_totals(rep_keys, per_transaction, class_counts),
            *_access_distinct(_sector_keys(act, full, itemsize, sector_bytes)),
        )
    scale = 1.0 / fraction
    return AccessSummary(
        n_warps_total, n_active, *(c * scale for c in counts),
        bytes_requested=n_active * itemsize, sample_fraction=fraction,
    )


def analyze_shared_access_fast(
    byte_offsets: np.ndarray,
    mask: np.ndarray | None,
    *,
    warp_size: int = 32,
    nbanks: int = 32,
    bank_bytes: int = 4,
) -> BankConflictSummary | None:
    """Fast-path equivalent of :func:`repro.mem.banks.analyze_shared_access`.

    Bank ids repeat with period ``nbanks * bank_bytes`` bytes, so an
    affine access's conflict degree depends only on the row's start
    offset modulo that period.  Returns ``None`` when ineligible.
    """
    offsets = np.asarray(byte_offsets, dtype=np.int64)
    o2d, m2d = lanes_to_warps(offsets, mask, warp_size)
    n_warps_total = int(m2d.any(axis=1).sum())
    n_active = int(m2d.sum())
    if n_warps_total == 0:
        return BankConflictSummary(0, 0, 0, 0, 0)

    act = _affine_rows(o2d, m2d)
    if act is None:
        return None

    rep_idx, class_counts = _class_representatives(act[:, 0], nbanks * bank_bytes)
    rep = act[rep_idx]
    full = np.ones(rep.shape, dtype=bool)
    degrees = shared_pass_degrees(rep, full, nbanks=nbanks, bank_bytes=bank_bytes)
    passes = int((degrees * class_counts).sum())
    return BankConflictSummary(
        n_warps=n_warps_total,
        n_active_lanes=n_active,
        passes=passes,
        conflict_extra=passes - n_warps_total,
        max_degree=int(degrees.max(initial=0)),
    )
