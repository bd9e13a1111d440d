"""Replay guards: linear-time fingerprints of per-access lane vectors.

An artifact may only answer for an access whose inputs match
what the trace recorded, and the whole point of the JIT is that this
check must be much cheaper than the reference analysis it skips.  The
reference analyzers sort lane addresses per warp and deduplicate
segments at three granularities (``O(n log n)`` with several passes);
the guard is a single masked pass.

The fingerprint is position-sensitive: inactive lanes are replaced by
a sentinel and every lane is weighted by a per-position multiplier (a
Weyl sequence on the golden-ratio constant), so both the multiset of
active addresses *and* their assignment to lanes/warps — which the warp
analyzers depend on — are covered.  Together with the plain sum, the
lane count, and the active count, a disagreeing access has to collide
two independent 64-bit checksums to slip through; the differential
matrix in ``tests/differential`` locks the end-to-end equality
empirically on every registered benchmark.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lane_fingerprint"]

#: golden-ratio multiplier (same constant as splitmix64's increment)
_GOLD = np.uint64(0x9E3779B97F4A7C15)

_weights_memo: dict[int, np.ndarray] = {}


def _weights(n: int) -> np.ndarray:
    """Per-lane uint64 multipliers, memoized per vector length."""
    w = _weights_memo.get(n)
    if w is None:
        w = np.arange(n, dtype=np.uint64) * _GOLD + np.uint64(1)
        w.setflags(write=False)
        _weights_memo[n] = w
    return w


def lane_fingerprint(
    values: np.ndarray, mask: np.ndarray | None
) -> tuple[int, int, int, int]:
    """``(n_lanes, n_active, sum, weighted_sum)`` of a masked lane vector.

    Sums are taken mod 2**64 over the sentinel-masked vector, so the
    fingerprint is exactly reproducible across runs and processes.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.flags["C_CONTIGUOUS"]:
        values = np.ascontiguousarray(values)
    n = values.shape[0]
    if mask is None:
        active = n
        work = values.view(np.uint64)
    else:
        mask = np.asarray(mask, dtype=bool)
        active = int(np.count_nonzero(mask))
        work = np.where(mask, values, -1).view(np.uint64)
    lin = int(work.sum(dtype=np.uint64))
    # an unsigned dot product wraps mod 2**64 like the sum, without
    # materializing the products
    weighted = int(work.dot(_weights(n)))
    return (n, active, lin, weighted)
