"""Property-based tests: coalescing analysis vs a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.coalesce import analyze_access

BASE = 0x100000


def brute_force_counts(addrs, mask, itemsize, seg):
    """Reference implementation: per-warp distinct segments, via sets."""
    total = 0
    for w in range(0, len(addrs), 32):
        segs = set()
        for lane in range(w, min(w + 32, len(addrs))):
            if mask is None or mask[lane]:
                a = int(addrs[lane])
                segs.add(a // seg)
                segs.add((a + itemsize - 1) // seg)
        total += len(segs)
    return total


def brute_force_distinct(addrs, mask, itemsize, seg):
    """Reference implementation: distinct segments of the whole access."""
    segs = set()
    for lane, a in enumerate(addrs):
        if mask is None or mask[lane]:
            segs.add(int(a) // seg)
            segs.add((int(a) + itemsize - 1) // seg)
    return len(segs)


indices = st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200)
masks = st.lists(st.booleans(), min_size=1, max_size=200)
itemsizes = st.sampled_from([1, 2, 4, 8, 16])


class TestAgainstOracle:
    @given(idx=indices, itemsize=itemsizes)
    @settings(max_examples=60, deadline=None)
    def test_transactions_match_brute_force(self, idx, itemsize):
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(addrs, None, itemsize)
        assert s.transactions == brute_force_counts(addrs, None, itemsize, 128)

    @given(idx=indices, itemsize=itemsizes)
    @settings(max_examples=60, deadline=None)
    def test_sectors_match_brute_force(self, idx, itemsize):
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(addrs, None, itemsize)
        assert s.sectors == brute_force_counts(addrs, None, itemsize, 32)

    @given(data=st.data(), itemsize=itemsizes)
    @settings(max_examples=40, deadline=None)
    def test_masked_matches_brute_force(self, data, itemsize):
        idx = data.draw(indices)
        mask = np.array(
            data.draw(
                st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))
            )
        )
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(addrs, mask, itemsize)
        assert s.transactions == brute_force_counts(addrs, mask, itemsize, 128)


class TestWholeAccessAgainstOracle:
    """Whole-access distinct sectors/bursts and per-warp bursts.

    Sorted index lists reach the distinct count's already-ordered
    branch, unsorted ones its sort; a misaligned base makes elements
    straddle segments, which concatenates first and last keys.
    """

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    @given(
        data=st.data(), itemsize=itemsizes, misalign=st.sampled_from([0, 1, 6])
    )
    @settings(max_examples=40, deadline=None)
    def test_match_brute_force(self, ordered, masked, data, itemsize, misalign):
        idx = data.draw(indices)
        if ordered:
            idx = sorted(idx)
        mask = None
        if masked:
            mask = np.array(data.draw(
                st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))
            ))
        addrs = BASE + misalign + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(addrs, mask, itemsize)
        assert s.unique_sectors == brute_force_distinct(addrs, mask, itemsize, 32)
        assert s.unique_bursts == brute_force_distinct(addrs, mask, itemsize, 64)
        assert s.bursts == brute_force_counts(addrs, mask, itemsize, 64)


class TestInvariants:
    @given(idx=indices, itemsize=itemsizes)
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, idx, itemsize):
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(addrs, None, itemsize)
        n_warps = -(-len(idx) // 32)
        assert s.n_warps == n_warps
        # at least 1, at most lanes x 2 (straddles) transactions per warp
        assert n_warps <= s.transactions <= 2 * len(idx)
        # sector count >= transaction count never holds in general, but
        # sectors fit within transactions x sectors-per-transaction
        assert s.sectors <= s.transactions * 4 + len(idx)
        assert 1.0 <= s.dram_burst_factor <= 2.0

    @given(idx=indices)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, idx):
        """Shuffling lanes within one warp cannot change the counts."""
        idx = (idx * 32)[:32]  # one full warp
        addrs = BASE + np.asarray(idx, dtype=np.int64) * 4
        rng = np.random.default_rng(0)
        shuffled = addrs.copy()
        rng.shuffle(shuffled)
        a = analyze_access(addrs, None, 4)
        b = analyze_access(shuffled, None, 4)
        assert a.transactions == b.transactions
        assert a.sectors == b.sectors

    @given(idx=indices)
    @settings(max_examples=40, deadline=None)
    def test_widening_mask_monotone(self, idx):
        """More active lanes can never reduce the transaction count."""
        addrs = BASE + np.asarray(idx, dtype=np.int64) * 4
        half = np.zeros(len(idx), dtype=bool)
        half[: len(idx) // 2] = True
        full = np.ones(len(idx), dtype=bool)
        a = analyze_access(addrs, half, 4)
        b = analyze_access(addrs, full, 4)
        assert b.transactions >= a.transactions
