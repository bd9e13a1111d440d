"""Residue-class fast path: eligibility gating and exact equivalence."""

import numpy as np
import pytest

from repro.exec.fastpath import analyze_access_fast, analyze_shared_access_fast
from repro.mem.banks import analyze_shared_access
from repro.mem.coalesce import analyze_access

BASE = 0x100000


def affine(n, stride, itemsize=4, offset=0):
    return BASE + offset + np.arange(n, dtype=np.int64) * stride * itemsize


class TestEligibility:
    def test_partial_mask_ineligible(self):
        mask = np.ones(64, dtype=bool)
        mask[3] = False
        assert analyze_access_fast(affine(64, 1), mask, 4) is None

    def test_irregular_stride_ineligible(self):
        addrs = affine(64, 1)
        addrs[40] += 4
        assert analyze_access_fast(addrs, None, 4) is None

    def test_mixed_stride_across_warps_ineligible(self):
        addrs = np.concatenate([affine(32, 1), affine(32, 2, offset=4096)])
        assert analyze_access_fast(addrs, None, 4) is None

    def test_whole_warp_inactive_is_eligible(self):
        mask = np.ones(64, dtype=bool)
        mask[32:] = False
        fast = analyze_access_fast(affine(64, 1), mask, 4)
        assert fast is not None
        assert fast == analyze_access(affine(64, 1), mask, 4)

    def test_segment_not_whole_sectors_rejected(self):
        with pytest.raises(ValueError, match="not a multiple of sector_bytes"):
            analyze_access_fast(
                affine(64, 1), None, 4, transaction_bytes=96, sector_bytes=64
            )

    def test_empty_grid(self):
        fast = analyze_access_fast(np.array([], dtype=np.int64), None, 4)
        assert fast == analyze_access(np.array([], dtype=np.int64), None, 4)

    def test_shared_partial_mask_ineligible(self):
        mask = np.ones(32, dtype=bool)
        mask[0] = False
        offs = np.arange(32, dtype=np.int64) * 4
        assert analyze_shared_access_fast(offs, mask) is None


class TestGlobalEquivalence:
    @pytest.mark.parametrize("stride", [1, 2, 4, 8, 17, 32, 1 << 12])
    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    def test_strided_streams(self, stride, itemsize):
        addrs = affine(512, stride, itemsize)
        fast = analyze_access_fast(addrs, None, itemsize)
        assert fast is not None
        assert fast == analyze_access(addrs, None, itemsize)

    @pytest.mark.parametrize("offset", [0, 1, 3, 4, 31, 32, 100, 127])
    def test_misaligned_streams(self, offset):
        addrs = affine(256, 1, 4, offset=offset)
        fast = analyze_access_fast(addrs, None, 4)
        assert fast is not None
        assert fast == analyze_access(addrs, None, 4)

    def test_straddling_elements(self):
        # 8-byte elements at odd 4-byte offsets straddle 32B sector lines
        addrs = affine(128, 1, 8, offset=4)
        fast = analyze_access_fast(addrs, None, 8)
        assert fast == analyze_access(addrs, None, 8)

    def test_broadcast_stride_zero(self):
        addrs = np.full(64, BASE, dtype=np.int64)
        fast = analyze_access_fast(addrs, None, 4)
        assert fast == analyze_access(addrs, None, 4)

    def test_negative_stride(self):
        addrs = BASE + (np.arange(128, dtype=np.int64)[::-1]) * 4
        fast = analyze_access_fast(np.ascontiguousarray(addrs), None, 4)
        assert fast == analyze_access(addrs, None, 4)

    @pytest.mark.parametrize(
        "tx,sec,itemsize,offset", [(64, 64, 2, 32), (96, 32, 1, 16)]
    )
    def test_burst_residue_classes(self, tx, sec, itemsize, offset):
        # warps whose starts agree modulo the segment but not modulo
        # the burst touch different numbers of bursts, so the classes
        # are taken modulo both
        addrs = affine(384, 1, itemsize, offset=offset)
        kw = dict(transaction_bytes=tx, sector_bytes=sec)
        fast = analyze_access_fast(addrs, None, itemsize, **kw)
        assert fast is not None
        assert fast == analyze_access(addrs, None, itemsize, **kw)

    def test_sampling_threshold_consistent(self):
        addrs = affine(32 * 64, 1)
        fast = analyze_access_fast(addrs, None, 4, max_analyzed_warps=16)
        ref = analyze_access(addrs, None, 4, max_analyzed_warps=16)
        assert fast == ref
        assert fast.sample_fraction < 1.0


class TestSharedEquivalence:
    @pytest.mark.parametrize("stride_words", [1, 2, 4, 8, 16, 32, 33])
    def test_strided_words(self, stride_words):
        offs = np.arange(256, dtype=np.int64) * stride_words * 4
        fast = analyze_shared_access_fast(offs, None)
        assert fast is not None
        assert fast == analyze_shared_access(offs, None)

    def test_broadcast(self):
        offs = np.zeros(64, dtype=np.int64)
        fast = analyze_shared_access_fast(offs, None)
        assert fast == analyze_shared_access(offs, None)

    def test_whole_warp_inactive(self):
        mask = np.ones(64, dtype=bool)
        mask[:32] = False
        offs = np.arange(64, dtype=np.int64) * 8
        fast = analyze_shared_access_fast(offs, mask)
        assert fast == analyze_shared_access(offs, mask)
