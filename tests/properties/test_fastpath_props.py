"""Property-based tests: the residue-class fast path vs the reference oracle.

For every randomly drawn affine access pattern (base offset x stride x
itemsize x grid size x warp-granular activity), the fast analyzers must
either decline (return ``None`` — never wrong, just ineligible) or
produce a summary equal to the reference analyzer's, field for field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.fastpath import analyze_access_fast, analyze_shared_access_fast
from repro.mem.banks import analyze_shared_access
from repro.mem.coalesce import MAX_ANALYZED_WARPS, analyze_access
from tests.properties.test_coalesce_props import GEOMETRIES, wide_itemsizes

BASE = 0x100000

n_lanes = st.integers(1, 8).map(lambda w: w * 32)
strides = st.integers(-64, 64)
offsets = st.integers(0, 255)
itemsizes = st.sampled_from([1, 2, 4, 8, 16])


def affine_addrs(n, stride, itemsize, offset):
    return BASE + offset + np.arange(n, dtype=np.int64) * stride * itemsize


def warp_mask(data, n):
    """Whole warps on or off (the convergent shapes the fast path accepts)."""
    flags = data.draw(
        st.lists(st.booleans(), min_size=n // 32, max_size=n // 32)
    )
    return np.repeat(np.asarray(flags, dtype=bool), 32)


class TestGlobalFastPath:
    @given(n=n_lanes, stride=strides, itemsize=itemsizes, offset=offsets)
    @settings(max_examples=120, deadline=None)
    def test_affine_equals_reference(self, n, stride, itemsize, offset):
        addrs = affine_addrs(n, stride, itemsize, offset)
        fast = analyze_access_fast(addrs, None, itemsize)
        assert fast is not None, "affine access must be eligible"
        assert fast == analyze_access(addrs, None, itemsize)

    @given(
        data=st.data(), n=n_lanes, stride=strides, itemsize=itemsizes, offset=offsets
    )
    @settings(max_examples=80, deadline=None)
    def test_warp_granular_masks_equal_reference(
        self, data, n, stride, itemsize, offset
    ):
        addrs = affine_addrs(n, stride, itemsize, offset)
        mask = warp_mask(data, n)
        fast = analyze_access_fast(addrs, mask, itemsize)
        assert fast is not None
        assert fast == analyze_access(addrs, mask, itemsize)

    @given(data=st.data(), n=n_lanes, itemsize=itemsizes)
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_patterns_never_wrong(self, data, n, itemsize):
        # unrestricted indices: fast may decline, but must not disagree
        idx = data.draw(
            st.lists(st.integers(0, 1 << 12), min_size=n, max_size=n)
        )
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        fast = analyze_access_fast(addrs, None, itemsize)
        if fast is not None:
            assert fast == analyze_access(addrs, None, itemsize)


class TestSharedFastPath:
    @given(n=n_lanes, stride=st.integers(0, 64), offset=st.integers(0, 127))
    @settings(max_examples=120, deadline=None)
    def test_affine_equals_reference(self, n, stride, offset):
        offs = offset + np.arange(n, dtype=np.int64) * stride * 4
        fast = analyze_shared_access_fast(offs, None)
        assert fast is not None
        assert fast == analyze_shared_access(offs, None)

    @given(data=st.data(), n=n_lanes, stride=st.integers(0, 33))
    @settings(max_examples=60, deadline=None)
    def test_warp_granular_masks_equal_reference(self, data, n, stride):
        offs = np.arange(n, dtype=np.int64) * stride * 4
        mask = warp_mask(data, n)
        fast = analyze_shared_access_fast(offs, mask)
        assert fast is not None
        assert fast == analyze_shared_access(offs, mask)


class TestGlobalFastPathGeometries:
    """The residue classes hold at every granularity the oracle takes."""

    @pytest.mark.parametrize("tx,sec", GEOMETRIES)
    @given(
        data=st.data(), n=n_lanes, stride=strides, itemsize=wide_itemsizes,
        offset=offsets, limit=st.sampled_from([2, 5, MAX_ANALYZED_WARPS]),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_equals_reference(
        self, tx, sec, data, n, stride, itemsize, offset, limit
    ):
        addrs = affine_addrs(n, stride, itemsize, offset)
        mask = warp_mask(data, n)
        kw = dict(transaction_bytes=tx, sector_bytes=sec, max_analyzed_warps=limit)
        fast = analyze_access_fast(addrs, mask, itemsize, **kw)
        assert fast is not None
        assert fast == analyze_access(addrs, mask, itemsize, **kw)
