"""Shared-memory bank-conflict analysis.

Shared memory is organised as ``nbanks`` (32) independent banks, each
``bank_bytes`` (4) wide, with successive words mapped to successive
banks.  A warp's shared access completes in one pass unless two or more
lanes touch *different words in the same bank*, in which case the
hardware replays the access once per extra word — an *n-way bank
conflict* costs ``n`` passes.  Lanes reading the *same* word broadcast
for free.

The analysis is fully vectorized: distinct ``(warp, word)`` pairs are
identified with the same sort-and-diff trick as coalescing, then a
``bincount`` over the ``(warp, bank)`` keys of those distinct pairs
alone (dead lanes and repeated words never enter it) yields per-bank
multiplicities, whose per-warp maximum is the conflict degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mem.coalesce import lanes_to_warps

__all__ = ["BankConflictSummary", "shared_pass_degrees", "analyze_shared_access"]

_SENTINEL = np.iinfo(np.int64).max


@dataclass(frozen=True)
class BankConflictSummary:
    """Bank behaviour of one warp-wide shared-memory access."""

    n_warps: int            #: warps with at least one active lane
    n_active_lanes: int
    passes: int             #: serialized passes summed over warps
    conflict_extra: int     #: passes beyond the conflict-free minimum
    max_degree: int         #: worst conflict degree of any warp


def shared_pass_degrees(
    o2d: np.ndarray,
    m2d: np.ndarray,
    *,
    nbanks: int = 32,
    bank_bytes: int = 4,
) -> np.ndarray:
    """Per-warp serialized pass counts for a ``(warps, warp_size)`` access.

    A conflict-free active warp costs one pass; an *n*-way conflict costs
    ``n``; inactive rows cost zero.  Shared by the reference analyzer and
    the fast path, which runs it on residue-class representatives.
    """
    # Dead lanes are pushed to a sentinel so they sort to the row end and
    # can never break up a run of identical live words.
    words = np.where(m2d, o2d // bank_bytes, _SENTINEL)
    words.sort(axis=1)
    distinct = words != _SENTINEL
    if words.shape[1] > 1:
        distinct[:, 1:] &= words[:, 1:] != words[:, :-1]

    # each distinct live word counts once in its bank: repeats broadcast
    n_rows = words.shape[0]
    keys = np.nonzero(distinct)[0] * nbanks + words[distinct] % nbanks
    degree = np.bincount(keys, minlength=n_rows * nbanks).reshape(
        n_rows, nbanks
    ).max(axis=1)
    active_rows = m2d.any(axis=1)
    return np.where(active_rows, np.maximum(degree, 1), 0)


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
    n_warps_total = int(m2d.any(axis=1).sum())
    n_active = int(m2d.sum())
    if n_warps_total == 0:
        return BankConflictSummary(0, 0, 0, 0, 0)

    degree = shared_pass_degrees(o2d, m2d, nbanks=nbanks, bank_bytes=bank_bytes)
    passes = int(degree.sum())
    return BankConflictSummary(
        n_warps=n_warps_total,
        n_active_lanes=n_active,
        passes=passes,
        conflict_extra=passes - n_warps_total,
        max_degree=int(degree.max(initial=0)),
    )
