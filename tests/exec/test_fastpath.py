"""What ``FastDispatch``, the analysis the jit backend records on, answers.

Every access, shared and global, takes the oracle, held here to a
brute-force count.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.exec import FastDispatch
from repro.mem.coalesce import analyze_access
from tests.properties.test_banks_props import brute_force_degree
from tests.properties.test_coalesce_props import brute_force_summary, five_counts

BASE = 0x100000


def affine(n, stride, itemsize=4, offset=0):
    return BASE + offset + np.arange(n, dtype=np.int64) * stride * itemsize


def assert_exact(addrs, itemsize, tx=128, sec=32):
    """The global summary jit records has the brute-force counts."""
    summary = FastDispatch().analyze_global(
        addrs, None, itemsize, warp_size=32, transaction_bytes=tx, sector_bytes=sec
    )
    assert five_counts(summary) == brute_force_summary(addrs, None, itemsize, tx, sec)


def assert_shared_exact(offsets, mask):
    """The shared summary jit records has the brute-force counts."""
    summary = FastDispatch().analyze_shared(
        offsets, mask, warp_size=32, nbanks=32, bank_bytes=4
    )
    assert astuple(summary) == brute_force_degree(offsets, mask)


class TestEligibility:
    """Partial masks, irregular and mixed strides, dead warps and empty
    grids, counted exactly on the one shared analyzer."""

    def test_partial_mask_ineligible(self):
        mask = np.ones(64, dtype=bool)
        mask[3] = False
        assert_shared_exact(affine(64, 1), mask)

    def test_irregular_stride_ineligible(self):
        offs = affine(64, 1)
        offs[40] += 4
        assert_shared_exact(offs, None)

    def test_mixed_stride_across_warps_ineligible(self):
        offs = np.concatenate([affine(32, 1), affine(32, 2, offset=4096)])
        assert_shared_exact(offs, None)

    def test_whole_warp_inactive_is_eligible(self):
        mask = np.ones(64, dtype=bool)
        mask[32:] = False
        assert_shared_exact(affine(64, 1), mask)

    def test_empty_grid(self):
        assert_shared_exact(np.array([], dtype=np.int64), None)

    def test_shared_partial_mask_ineligible(self):
        mask = np.ones(32, dtype=bool)
        mask[0] = False
        assert_shared_exact(np.arange(32, dtype=np.int64) * 4, mask)


class TestGlobalEquivalence:
    """The streams of paper Fig. 7 and §IV-C, counted exactly."""

    @pytest.mark.parametrize("stride", [1, 2, 4, 8, 17, 32, 1 << 12])
    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    def test_strided_streams(self, stride, itemsize):
        assert_exact(affine(512, stride, itemsize), itemsize)

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 31, 32, 100, 127])
    def test_misaligned_streams(self, offset):
        assert_exact(affine(256, 1, 4, offset=offset), 4)

    def test_straddling_elements(self):
        # 8-byte elements at odd 4-byte offsets straddle 32B sector lines
        assert_exact(affine(128, 1, 8, offset=4), 8)

    def test_broadcast_stride_zero(self):
        assert_exact(np.full(64, BASE, dtype=np.int64), 4)

    def test_negative_stride(self):
        assert_exact(BASE + np.arange(128, dtype=np.int64)[::-1] * 4, 4)

    @pytest.mark.parametrize(
        "tx,sec,itemsize,offset", [(64, 64, 2, 32), (96, 32, 1, 16)]
    )
    def test_burst_residue_classes(self, tx, sec, itemsize, offset):
        # warps whose starts agree modulo the segment but not modulo
        # the burst touch different numbers of bursts
        assert_exact(affine(384, 1, itemsize, offset=offset), itemsize, tx, sec)

    def test_sampling_threshold_consistent(self):
        # every warp of a coalesced stream looks alike, so the rescaled
        # sample counts the whole stream
        addrs = affine(32 * 64, 1)
        s = analyze_access(addrs, None, 4, max_analyzed_warps=16)
        assert s.sample_fraction < 1.0
        assert five_counts(s) == brute_force_summary(addrs, None, 4, 128, 32)


class TestSharedEquivalence:
    """The strided tiles of paper §IV-F."""

    @pytest.mark.parametrize("stride_words", [1, 2, 4, 8, 16, 32, 33])
    def test_strided_words(self, stride_words):
        assert_shared_exact(np.arange(256, dtype=np.int64) * stride_words * 4, None)

    def test_broadcast(self):
        assert_shared_exact(np.zeros(64, dtype=np.int64), None)

    def test_whole_warp_inactive(self):
        mask = np.ones(64, dtype=bool)
        mask[:32] = False
        assert_shared_exact(np.arange(64, dtype=np.int64) * 8, mask)
