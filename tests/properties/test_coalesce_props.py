"""Property-based tests: coalescing analysis vs a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.coalesce import _select_sample, analyze_access

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


#: (transaction_bytes, sector_bytes): the V100's, halved and doubled
#: segments, a non-power-of-two sectors-per-segment ratio, small sectors,
#: and a segment of one sector.
GEOMETRIES = [(128, 32), (64, 32), (256, 32), (96, 32), (128, 16), (64, 64)]
# up to 64 B, so an element can span more than two sectors
wide_itemsizes = st.sampled_from([1, 2, 4, 8, 12, 16, 24, 32, 48, 64])


def brute_force_summary(addrs, mask, itemsize, tx, sec, warps=None, warp_size=32):
    """All five counts, by sets, over ``warps`` (default: every warp).

    Each active element counts against the segment of its first byte and
    that of its last byte, not the ones between.  Returns the per-warp
    sums of distinct transactions, sectors and bursts, then the distinct
    sectors and bursts of all those warps together.
    """
    per_warp = [0, 0, 0]
    whole = (set(), set())
    if warps is None:
        warps = range(-(-len(addrs) // warp_size))
    for w in warps:
        ends = [
            end
            for lane in range(w * warp_size, min((w + 1) * warp_size, len(addrs)))
            if mask is None or mask[lane]
            for end in (int(addrs[lane]), int(addrs[lane]) + itemsize - 1)
        ]
        for i, seg in enumerate((tx, sec, 2 * sec)):
            per_warp[i] += len({end // seg for end in ends})
        whole[0].update(end // sec for end in ends)
        whole[1].update(end // (2 * sec) for end in ends)
    return (*per_warp, len(whole[0]), len(whole[1]))


def five_counts(s):
    return (s.transactions, s.sectors, s.bursts, s.unique_sectors, s.unique_bursts)


def draw_mask(data, n):
    return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))


class TestGeometriesAgainstOracle:
    """Every count at several granularities from the one sorted key matrix.

    The per-warp counts at the segment and burst granularities are the
    sector keys floor-divided, so elements wider than a sector, bases
    off every boundary and segments of a non-power-of-two sector count
    are where a wrong derivation would show.
    """

    @pytest.mark.parametrize("tx,sec", GEOMETRIES)
    @given(
        data=st.data(), itemsize=wide_itemsizes, misalign=st.integers(0, 127),
        ordered=st.booleans(), masked=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_counts_match_brute_force(
        self, tx, sec, data, itemsize, misalign, ordered, masked
    ):
        idx = data.draw(indices)
        if ordered:
            idx = sorted(idx)
        mask = draw_mask(data, len(idx)) if masked else None
        addrs = BASE + misalign + np.asarray(idx, dtype=np.int64) * itemsize
        s = analyze_access(
            addrs, mask, itemsize, transaction_bytes=tx, sector_bytes=sec
        )
        assert five_counts(s) == brute_force_summary(addrs, mask, itemsize, tx, sec)

    @pytest.mark.parametrize("tx,sec", GEOMETRIES)
    @given(
        itemsize=wide_itemsizes, misalign=st.integers(0, 127),
        limit=st.sampled_from([8, 100, 512]), extra_warps=st.integers(1, 300),
        stride=st.sampled_from([None, -1, 0, 1, 2, 33]),
        density=st.sampled_from([None, 0.3, 0.9]), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_sampled_access_is_rescaled_brute_force(
        self, tx, sec, itemsize, misalign, limit, extra_warps, stride, density, seed
    ):
        """The warps ``_select_sample`` picks, counted and rescaled.

        A limit of 512 warps samples two chunks of 256; a smaller limit
        one chunk.  ``stride=None`` draws random element indices.
        """
        rng = np.random.default_rng(seed)
        n_warps = limit + extra_warps
        n = n_warps * 32 - int(rng.integers(0, 32))
        idx = np.arange(n, dtype=np.int64) * (stride or 0)
        if stride is None:
            idx = rng.integers(0, 1 << 16, size=n)
        addrs = BASE + misalign + idx * itemsize
        mask = None if density is None else rng.random(n) < density
        s = analyze_access(
            addrs, mask, itemsize, transaction_bytes=tx, sector_bytes=sec,
            max_analyzed_warps=limit,
        )
        picked, fraction = _select_sample(n_warps, limit)
        assert s.sample_fraction == fraction < 1.0
        want = brute_force_summary(addrs, mask, itemsize, tx, sec, warps=picked)
        assert five_counts(s) == tuple(c * (1.0 / fraction) for c in want)
        assert s.n_active_lanes == (n if mask is None else int(mask.sum()))
