"""Residue-class fast path for the per-warp shared-bank analysis.

Shared bank ids repeat with period ``nbanks * bank_bytes`` bytes, so
when an access is *affine* — each warp is fully convergent and its
lanes step by one common stride (row walks, column walks, broadcasts) —
a warp's conflict degree depends only on its start offset modulo that
period.  Grouping warps by start offset modulo the period therefore
collapses the grid to at most ``nbanks * bank_bytes`` *residue
classes*; the reference helper counts one representative row per class
and the counts are weighted by class sizes.  Because the
representatives are actual rows of the access and the reference code
path itself produces each class count, the fast result is
bit-identical to the reference result — by construction, not by
approximation.

The analyzer returns ``None`` when an access is not eligible (partial
warps, divergent masks, irregular strides); the dispatcher then falls
back to the reference implementation.  Global accesses have no fast
path: the coalescing oracle sorts each access once, which is cheaper
than classing its warps and falling back on the ineligible ones.
"""

from __future__ import annotations

import numpy as np

from repro.mem.banks import BankConflictSummary, shared_pass_degrees
from repro.mem.coalesce import lanes_to_warps

__all__ = ["analyze_shared_access_fast"]


def _affine_rows(a2d: np.ndarray, m2d: np.ndarray) -> np.ndarray | None:
    """Return the fully-active rows if the access is affine, else None.

    Eligibility: every warp row is fully active or fully inactive
    (convergent — no partial masks), and all active rows share one
    intra-warp stride.  These are exactly the accesses whose per-warp
    statistics are determined by each row's start modulo the period.
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


def analyze_shared_access_fast(
    byte_offsets: np.ndarray,
    mask: np.ndarray | None,
    *,
    warp_size: int = 32,
    nbanks: int = 32,
    bank_bytes: int = 4,
) -> BankConflictSummary | None:
    """Fast-path equivalent of :func:`repro.mem.banks.analyze_shared_access`.

    Returns ``None`` when the access is not affine.
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

    # one representative row per residue class, and the class sizes
    _, rep_idx, class_counts = np.unique(
        act[:, 0] % (nbanks * bank_bytes), return_index=True, return_counts=True
    )
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
