"""Set-associative LRU cache model.

The memory hierarchy uses this model in two roles:

* a *representative-warp* L1 simulation — each sampled warp's program-
  order line stream runs through a cache scaled to that warp's fair
  share of the L1, capturing intra-warp temporal reuse (e.g. a matmul
  row line being re-read for 32 consecutive ``k`` iterations);
* a *sampled-stream* L2 simulation — the interleaved line stream of a
  contiguous warp window runs through a cache whose capacity is scaled
  by the sampling fraction, capturing cross-warp spatial sharing and
  sweep-to-sweep reuse while keeping footprint/capacity ratios intact.

Both run on :class:`BatchedLRU`, which holds every set of one or more
caches in arrays and resolves a whole access stream with a few NumPy
operations per round.  :class:`LRUCache` is the scalar, one-access-at-
a-time model; it stays as the oracle the batched model is tested
against.

The replacement policy is true LRU within each set; sets are selected
by a hash of the line index, as in real L1/L2 slices.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

__all__ = ["BatchedLRU", "LRUCache", "simulate_stream"]

_MASK64 = (1 << 64) - 1
#: splitmix64 finalizer constants, shared by the scalar and array hashes
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(line_id: int) -> int:
    """Cheap deterministic integer hash (splitmix64 finalizer).

    Real L2 slices hash the address bits into the set index so regular
    power-of-two strides do not collapse onto a few sets; plain modulo
    indexing would make the model thrash where hardware does not.
    """
    z = (line_id * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_array(line_ids: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a 1-d integer array, as ``uint64``.

    Array products wrap modulo 2**64 silently, which is the masking the
    scalar hash does by hand.  NumPy *scalar* products warn on overflow
    instead, so this takes arrays only.
    """
    z = line_ids.astype(np.uint64) * np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class LRUCache:
    """A set-associative cache over abstract line identifiers.

    Parameters
    ----------
    capacity_lines:
        Total number of lines the cache can hold.  A capacity of zero
        degenerates to a cache that always misses.
    ways:
        Associativity.  The set count is ``max(capacity_lines // ways, 1)``
        (fully associative when ``capacity_lines <= ways``).
    """

    def __init__(self, capacity_lines: int, ways: int = 8) -> None:
        if capacity_lines < 0:
            raise ValueError("capacity_lines must be non-negative")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.capacity_lines = int(capacity_lines)
        if self.capacity_lines == 0:
            self.n_sets = 0
            self.ways = 0
            self._sets: list[OrderedDict[int, None]] = []
        else:
            self.ways = min(ways, self.capacity_lines)
            self.n_sets = max(self.capacity_lines // self.ways, 1)
            self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: clean->dirty transitions: each implies one eventual write-back
        self.lines_dirtied = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lines_dirtied = 0

    def access(self, line_id: int, *, write: bool = False) -> bool:
        """Touch one line; returns True on hit.

        ``write`` marks the line dirty; the ``lines_dirtied`` counter
        counts clean->dirty transitions, each of which corresponds to
        one eventual write-back to the next level.
        """
        if self.capacity_lines == 0:
            self.misses += 1
            if write:
                self.lines_dirtied += 1
            return False
        s = self._sets[_mix(line_id) % self.n_sets]
        if line_id in s:
            s.move_to_end(line_id)
            self.hits += 1
            if write and not s[line_id]:
                s[line_id] = True
                self.lines_dirtied += 1
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.evictions += 1
        s[line_id] = bool(write)
        if write:
            self.lines_dirtied += 1
        return False

    def access_many(
        self, line_ids: Iterable[int] | np.ndarray, *, write: bool = False
    ) -> int:
        """Touch a sequence of lines in order; returns the hit count."""
        before = self.hits
        if isinstance(line_ids, np.ndarray):
            line_ids = line_ids.tolist()
        for lid in line_ids:
            self.access(int(lid), write=write)
        return self.hits - before

    def snapshot(self) -> dict[str, float]:
        """Counter rollup for observability exports."""
        return {
            "capacity_lines": self.capacity_lines,
            "ways": self.ways,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "lines_dirtied": self.lines_dirtied,
            "hit_rate": self.hit_rate,
            "resident_lines": len(self),
        }

    def contains(self, line_id: int) -> bool:
        """Non-mutating presence test (no LRU update, no counters)."""
        if self.capacity_lines == 0:
            return False
        return line_id in self._sets[_mix(line_id) % self.n_sets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class BatchedLRU:
    """``caches`` set-associative LRU caches of one geometry, as arrays.

    Exactly :class:`LRUCache`'s model, hit for hit: ``ways`` is
    ``min(ways, capacity_lines)`` and each cache has
    ``max(capacity_lines // ways, 1)`` sets.  Every set of every cache
    is one row of the ``tags``, ``stamp`` and ``dirty`` arrays; a
    ``stamp`` of 0 marks an empty way, otherwise it is the position
    (counted from 1) of the way's last access in the stream of all
    accesses so far.  All three start as zeros, so a large cache costs
    nothing until its sets are touched.
    """

    def __init__(
        self, capacity_lines: int, ways: int = 8, *, caches: int = 1
    ) -> None:
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.ways = min(ways, capacity_lines)
        self.n_sets = max(capacity_lines // self.ways, 1)
        shape = (caches * self.n_sets, self.ways)
        self.tags = np.zeros(shape, dtype=np.int64)
        self.stamp = np.zeros(shape, dtype=np.int64)
        self.dirty = np.zeros(shape, dtype=bool)
        self._clock = 1

    def set_index(
        self, line_ids: np.ndarray, cache: np.ndarray | int = 0
    ) -> np.ndarray:
        """The row of each line in cache ``cache``:
        ``cache * n_sets + mix(line) % n_sets``."""
        local = (_mix_array(line_ids) % np.uint64(self.n_sets)).astype(np.int64)
        return cache * self.n_sets + local

    def access(
        self, sets: np.ndarray, tags: np.ndarray, *, write: bool = False
    ) -> tuple[np.ndarray, int]:
        """Touch a program-ordered stream of lines, ``tags[i]`` in row
        ``sets[i]``.  Returns the per-access hit mask and the number of
        clean->dirty transitions (:attr:`LRUCache.lines_dirtied`).

        Runs in rounds: round ``r`` takes the ``r``-th access of every
        set, so no set sees two accesses in one round and each set sees
        its accesses in program order.
        """
        n = sets.size
        if not n:
            return np.zeros(0, dtype=bool), 0
        order = np.argsort(sets, kind="stable")
        by_set = sets[order]
        run_start = np.zeros(n, dtype=np.int64)
        starts = np.flatnonzero(by_set[1:] != by_set[:-1]) + 1
        run_start[starts] = starts
        rank = np.arange(n) - np.maximum.accumulate(run_start)
        # program positions, round by round
        pos = order[np.argsort(rank, kind="stable")]
        rows, keys, stamps = sets[pos], tags[pos], pos + self._clock
        tag_cells = self.tags.reshape(-1)
        stamp_cells = self.stamp.reshape(-1)
        dirty_cells = self.dirty.reshape(-1)
        hit = np.empty(n, dtype=bool)
        dirtied = 0
        lo = 0
        for hi in np.cumsum(np.bincount(rank)).tolist():
            row, key = rows[lo:hi], keys[lo:hi]
            row_stamp = self.stamp[row]
            match = (self.tags[row] == key[:, None]) & (row_stamp > 0)
            h = match.any(axis=1)
            hit[lo:hi] = h
            # a hit refreshes its way; a miss fills the way with the
            # smallest stamp: an empty one if any, else the LRU line
            cell = row * self.ways + np.where(
                h, match.argmax(axis=1), row_stamp.argmin(axis=1)
            )
            if write:
                dirtied += int(np.count_nonzero(~(h & dirty_cells[cell])))
                dirty_cells[cell] = True
            else:
                dirty_cells[cell] &= h  # a filled line arrives clean
            tag_cells[cell] = key
            stamp_cells[cell] = stamps[lo:hi]
            lo = hi
        self._clock += n
        hits = np.empty(n, dtype=bool)
        hits[pos] = hit
        return hits, dirtied


def simulate_stream(
    stream: np.ndarray | Iterable[int],
    capacity_lines: int,
    ways: int = 8,
) -> tuple[int, int]:
    """Run a line-id stream through a fresh cache; return (hits, misses)."""
    cache = LRUCache(capacity_lines, ways)
    cache.access_many(np.asarray(list(stream), dtype=np.int64))
    return cache.hits, cache.misses
