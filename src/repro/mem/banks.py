"""Shared-memory bank-conflict analysis.

Shared memory is organised as ``nbanks`` (32) independent banks, each
``bank_bytes`` (4) wide, with successive words mapped to successive
banks.  A warp's shared access completes in one pass unless two or more
lanes touch *different words in the same bank*, in which case the
hardware replays the access once per extra word — an *n-way bank
conflict* costs ``n`` passes.  Lanes reading the *same* word broadcast
for free.

The analysis is fully vectorized.  Warps with no live lane are dropped
first: the tree reductions of the paper's BankRedux and Shuffle rows
leave most warps idle in their later steps.  Each live warp's words are
sorted, so a word is distinct where it differs from its left
neighbour; one dense ``bincount`` over ``(warp, bank)`` keys then counts
each warp's distinct words per bank, with repeated words and dead lanes
sent to one discard bin.  A warp's conflict degree is its largest
per-bank count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.coalesce import lanes_to_warps

__all__ = ["BankConflictSummary", "analyze_shared_access"]

_SENTINEL = np.iinfo(np.int64).max


@dataclass(frozen=True)
class BankConflictSummary:
    """Bank behaviour of one warp-wide shared-memory access."""

    n_warps: int            #: warps with at least one active lane
    n_active_lanes: int
    passes: int             #: serialized passes summed over warps
    conflict_extra: int     #: passes beyond the conflict-free minimum
    max_degree: int         #: worst conflict degree of any warp


def analyze_shared_access(
    byte_offsets: np.ndarray,
    mask: np.ndarray | None,
    *,
    warp_size: int = 32,
    nbanks: int = 32,
    bank_bytes: int = 4,
) -> BankConflictSummary:
    """Analyze per-lane byte offsets within a block's shared memory.

    Multi-byte elements are classified by the bank of their first byte,
    matching the common 4-byte-element case the paper studies; 8-byte
    elements on real hardware can enable a 64-bit bank mode, which this
    model conservatively ignores.
    """
    offsets = np.asarray(byte_offsets, dtype=np.int64)
    o2d, m2d = lanes_to_warps(offsets, mask, warp_size)
    live = m2d.any(axis=1)
    n_warps = int(np.count_nonzero(live))
    if n_warps == 0:
        return BankConflictSummary(0, 0, 0, 0, 0)
    if n_warps < live.shape[0]:
        o2d, m2d = o2d[live], m2d[live]

    # Dead lanes are pushed to a sentinel so they sort to the row end and
    # can never break up a run of identical live words.
    words = o2d // bank_bytes
    words[~m2d] = _SENTINEL
    words.sort(axis=1)
    distinct = words != _SENTINEL
    distinct[:, 1:] &= words[:, 1:] != words[:, :-1]

    # each distinct live word counts once in its bank: repeats broadcast
    discard = n_warps * nbanks
    keys = np.where(
        distinct,
        np.arange(0, discard, nbanks)[:, None] + words % nbanks,
        discard,
    )
    degree = np.bincount(keys.ravel(), minlength=discard + 1)[:discard]
    degree = degree.reshape(n_warps, nbanks).max(axis=1)
    passes = int(degree.sum())
    return BankConflictSummary(
        n_warps=n_warps,
        n_active_lanes=int(np.count_nonzero(m2d)),
        passes=passes,
        conflict_extra=passes - n_warps,
        max_degree=int(degree.max()),
    )
