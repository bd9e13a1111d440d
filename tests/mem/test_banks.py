"""Shared-memory bank-conflict analysis (paper §IV-F scenarios)."""

import numpy as np
import pytest

from repro.mem.banks import analyze_shared_access


def offsets(words):
    """Byte offsets for 4-byte words."""
    return np.asarray(words, dtype=np.int64) * 4


class TestConflictFree:
    def test_sequential_lanes(self):
        s = analyze_shared_access(offsets(np.arange(32)), None)
        assert s.passes == 1
        assert s.conflict_extra == 0
        assert s.max_degree == 1

    def test_broadcast_free(self):
        s = analyze_shared_access(offsets(np.zeros(32, dtype=np.int64)), None)
        assert s.passes == 1
        assert s.max_degree == 1

    def test_permutation_free(self):
        # any permutation of 0..31 hits each bank once
        perm = np.random.default_rng(0).permutation(32)
        s = analyze_shared_access(offsets(perm), None)
        assert s.passes == 1

    def test_stride_33_free(self):
        # stride coprime with 32 banks: conflict-free
        s = analyze_shared_access(offsets(np.arange(32) * 33), None)
        assert s.max_degree == 1


class TestConflicts:
    @pytest.mark.parametrize("stride,degree", [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)])
    def test_power_of_two_strides(self, stride, degree):
        s = analyze_shared_access(offsets(np.arange(32) * stride), None)
        assert s.max_degree == degree
        assert s.passes == degree

    def test_interleaved_reduction_step1(self):
        # paper Fig. 12: index = 2*i*cid with i=1 -> 2-way conflicts
        idx = 2 * np.arange(32)
        s = analyze_shared_access(offsets(idx), None)
        assert s.max_degree == 2

    def test_mixed_broadcast_and_conflict(self):
        # 16 lanes read word 0 (broadcast), 16 lanes read words 32,64,...
        words = np.concatenate([np.zeros(16, np.int64), (np.arange(16) + 1) * 32])
        s = analyze_shared_access(offsets(words), None)
        # the strided half all map to bank 0 -> 16 distinct words + the
        # broadcast word in bank 0 = 17-way
        assert s.max_degree == 17


class TestMasking:
    def test_inactive_lanes_ignored(self):
        words = np.arange(32) * 2
        mask = np.zeros(32, dtype=bool)
        mask[:2] = True  # only lanes 0 and 1: words 0 and 2 -> different banks
        s = analyze_shared_access(offsets(words), mask)
        assert s.max_degree == 1
        assert s.n_active_lanes == 2

    def test_dead_lane_collision_ignored(self):
        # dead lane shares a bank-word with a live lane; must not double
        words = np.zeros(32, dtype=np.int64)
        words[1] = 32  # same bank as word 0
        mask = np.ones(32, dtype=bool)
        mask[1] = False
        s = analyze_shared_access(offsets(words), mask)
        assert s.max_degree == 1

    def test_live_dead_live_same_word(self):
        words = np.zeros(32, dtype=np.int64)
        mask = np.ones(32, dtype=bool)
        mask[5] = False
        s = analyze_shared_access(offsets(words), mask)
        assert s.passes == 1  # broadcast still one pass

    def test_empty(self):
        s = analyze_shared_access(offsets(np.arange(32)), np.zeros(32, bool))
        assert s.n_warps == 0
        assert s.passes == 0


class TestMultiWarp:
    def test_summed_over_warps(self):
        # warp 0 conflict-free, warp 1 two-way
        words = np.concatenate([np.arange(32), np.arange(32) * 2])
        s = analyze_shared_access(offsets(words), None)
        assert s.n_warps == 2
        assert s.passes == 3
        assert s.conflict_extra == 1

    def test_partial_last_warp(self):
        words = np.arange(48)  # 1.5 warps
        s = analyze_shared_access(offsets(words), None)
        assert s.n_warps == 2
        assert s.passes == 2
