"""Coalescing analysis: the Fig. 7 scenarios and edge cases."""

import numpy as np
import pytest

from repro.mem.coalesce import (
    analyze_access,
    distinct_count,
    lanes_to_warps,
    warp_distinct_counts,
)


def addrs_for(indices, itemsize=4, base=0x100000):
    return base + np.asarray(indices, dtype=np.int64) * itemsize


class TestLanesToWarps:
    def test_exact_multiple(self):
        v, m = lanes_to_warps(np.arange(64), None, 32)
        assert v.shape == (2, 32)
        assert m.all()

    def test_padding(self):
        v, m = lanes_to_warps(np.arange(40), None, 32)
        assert v.shape == (2, 32)
        assert m[0].all()
        assert m[1, :8].all() and not m[1, 8:].any()

    def test_mask_passthrough(self):
        mask = np.zeros(32, dtype=bool)
        mask[::2] = True
        _, m = lanes_to_warps(np.arange(32), mask, 32)
        assert m.sum() == 16

    def test_empty(self):
        v, m = lanes_to_warps(np.empty(0, dtype=np.int64), None, 32)
        assert v.shape == (0, 32)

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            lanes_to_warps(np.arange(4), np.ones(5, dtype=bool), 32)


class TestDistinctCount:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([1, 1, 2, 5, 5, 5, 9], dtype=np.int64),   # sorted
            np.array([5, 1, 9, 1, 5, 2, 5], dtype=np.int64),   # unsorted
            np.array([-3, 4, -3, -8, 0, 4], dtype=np.int64),   # negative
            np.array([[3, 1, 3], [2, 1, 8]], dtype=np.int64),  # 2-D
        ],
        ids=["empty", "one", "sorted", "unsorted", "negative", "2d"],
    )
    def test_matches_np_unique(self, keys):
        assert distinct_count(keys) == np.unique(keys).size

    def test_unsorted_input_is_not_modified(self):
        keys = np.array([3, 1, 2, 1], dtype=np.int64)
        distinct_count(keys)
        assert keys.tolist() == [3, 1, 2, 1]


class TestWarpDistinctCounts:
    def test_all_same(self):
        keys = np.zeros((1, 32), dtype=np.int64)
        assert warp_distinct_counts(keys, np.ones((1, 32), bool))[0] == 1

    def test_all_distinct(self):
        keys = np.arange(32, dtype=np.int64).reshape(1, 32)
        assert warp_distinct_counts(keys, np.ones((1, 32), bool))[0] == 32

    def test_masked_out_ignored(self):
        keys = np.arange(32, dtype=np.int64).reshape(1, 32)
        mask = np.zeros((1, 32), bool)
        mask[0, :4] = True
        assert warp_distinct_counts(keys, mask)[0] == 4

    def test_dead_lane_values_ignored(self):
        # dead lanes share key values with live lanes; must not distort
        keys = np.zeros((1, 32), dtype=np.int64)
        keys[0, :16] = np.arange(16)
        mask = np.zeros((1, 32), bool)
        mask[0, :16] = True
        assert warp_distinct_counts(keys, mask)[0] == 16

    def test_fully_inactive_row(self):
        keys = np.arange(32, dtype=np.int64).reshape(1, 32)
        assert warp_distinct_counts(keys, np.zeros((1, 32), bool))[0] == 0

    def test_single_column(self):
        keys = np.array([[5], [7]], dtype=np.int64)
        mask = np.array([[True], [False]])
        out = warp_distinct_counts(keys, mask)
        assert list(out) == [1, 0]


class TestAnalyzeAccessPatterns:
    """The three regimes of paper Fig. 7."""

    def test_coalesced_one_transaction(self):
        s = analyze_access(addrs_for(np.arange(32)), None, 4)
        assert s.transactions == 1
        assert s.sectors == 4
        assert s.bus_utilization == 1.0

    def test_strided_32_transactions(self):
        s = analyze_access(addrs_for(np.arange(32) * 32), None, 4)
        assert s.transactions == 32
        assert s.sectors == 32
        assert s.bus_utilization == pytest.approx(4 / 32)

    def test_random_access_in_between(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 1 << 20, size=32)
        s = analyze_access(addrs_for(idx), None, 4)
        assert 1 < s.transactions <= 32

    def test_broadcast_single_sector(self):
        s = analyze_access(addrs_for(np.zeros(32, dtype=np.int64)), None, 4)
        assert s.transactions == 1
        assert s.sectors == 1

    def test_misaligned_extra_segment(self):
        # each misaligned warp straddles one extra 128B segment
        aligned = analyze_access(addrs_for(np.arange(32)), None, 4)
        mis = analyze_access(addrs_for(np.arange(32) + 1), None, 4)
        assert aligned.transactions == 1
        assert mis.transactions == 2

    def test_element_straddling_segment(self):
        # one 8-byte element straddling a 128B boundary counts twice
        s = analyze_access(np.array([0x100000 + 124]), None, 8)
        assert s.transactions == 2

    def test_multiple_warps_sum(self):
        s = analyze_access(addrs_for(np.arange(128)), None, 4)
        assert s.n_warps == 4
        assert s.transactions == 4

    def test_partial_warp_masked(self):
        mask = np.zeros(32, dtype=bool)
        mask[:8] = True
        s = analyze_access(addrs_for(np.arange(32)), mask, 4)
        assert s.n_warps == 1
        assert s.n_active_lanes == 8
        assert s.transactions == 1
        assert s.sectors == 1

    def test_empty_mask(self):
        s = analyze_access(addrs_for(np.arange(32)), np.zeros(32, bool), 4)
        assert s.n_warps == 0
        assert s.transactions == 0

    def test_bytes_requested(self):
        s = analyze_access(addrs_for(np.arange(10)), None, 4)
        assert s.bytes_requested == 40

    @pytest.mark.parametrize("tx,sec", [(100, 32), (48, 32), (16, 32)])
    def test_segment_not_whole_sectors_rejected(self, tx, sec):
        # segment keys are sector keys divided by the sectors per segment
        with pytest.raises(ValueError, match="not a multiple of sector_bytes"):
            analyze_access(
                addrs_for(np.arange(32)), None, 4,
                transaction_bytes=tx, sector_bytes=sec,
            )


class TestBurstFactor:
    def test_dense_factor_one(self):
        s = analyze_access(addrs_for(np.arange(64)), None, 4)
        assert s.dram_burst_factor == pytest.approx(1.0)

    def test_isolated_sectors_factor_two(self):
        # 64B-strided 4B elements: every sector isolated in its burst
        s = analyze_access(addrs_for(np.arange(32) * 16), None, 4)
        assert s.dram_burst_factor == pytest.approx(2.0)

    def test_misaligned_stream_not_penalized(self):
        # neighbouring warps share boundary segments; dedup keeps ~1.0
        s = analyze_access(addrs_for(np.arange(1024) + 1), None, 4)
        assert s.dram_burst_factor == pytest.approx(1.0, abs=0.02)


class TestSampling:
    def test_sampled_counts_rescaled(self):
        n = 1 << 21  # 65536 warps -> sampling kicks in at limit 4096
        s_full = analyze_access(addrs_for(np.arange(1 << 16)), None, 4)
        s_samp = analyze_access(
            addrs_for(np.arange(n)), None, 4, max_analyzed_warps=4096
        )
        assert s_samp.sample_fraction < 1.0
        # per-warp statistics preserved for the regular pattern
        assert s_samp.transactions / s_samp.n_warps == pytest.approx(
            s_full.transactions / s_full.n_warps, rel=0.05
        )

    def test_exact_below_limit(self):
        s = analyze_access(addrs_for(np.arange(1 << 12)), None, 4)
        assert s.sample_fraction == 1.0
