"""Property-based tests: what ``FastDispatch`` answers vs a brute force.

``FastDispatch`` is the analysis the jit backend records on.  For every
randomly drawn affine access pattern (base offset x stride x itemsize x
grid size x warp-granular activity), the global summary it records must
equal a brute-force count.  Its shared answers come from the bank
oracle, whose own properties are in ``test_banks_props.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import FastDispatch
from tests.properties.test_coalesce_props import (
    GEOMETRIES,
    brute_force_summary,
    five_counts,
    wide_itemsizes,
)

BASE = 0x100000

n_lanes = st.integers(1, 8).map(lambda w: w * 32)
strides = st.integers(-64, 64)
offsets = st.integers(0, 255)
itemsizes = st.sampled_from([1, 2, 4, 8, 16])


def affine_addrs(n, stride, itemsize, offset):
    return BASE + offset + np.arange(n, dtype=np.int64) * stride * itemsize


def warp_mask(data, n):
    """Whole warps on or off."""
    flags = data.draw(
        st.lists(st.booleans(), min_size=n // 32, max_size=n // 32)
    )
    return np.repeat(np.asarray(flags, dtype=bool), 32)


def recorded_counts(addrs, mask, itemsize, tx=128, sec=32):
    """The five counts of the global summary jit records."""
    summary = FastDispatch().analyze_global(
        addrs, mask, itemsize, warp_size=32, transaction_bytes=tx, sector_bytes=sec
    )
    return five_counts(summary)


class TestGlobalFastPath:
    """Global accesses on ``FastDispatch``, counted exactly."""

    @given(n=n_lanes, stride=strides, itemsize=itemsizes, offset=offsets)
    @settings(max_examples=120, deadline=None)
    def test_affine_equals_reference(self, n, stride, itemsize, offset):
        addrs = affine_addrs(n, stride, itemsize, offset)
        assert recorded_counts(addrs, None, itemsize) == brute_force_summary(
            addrs, None, itemsize, 128, 32
        )

    @given(
        data=st.data(), n=n_lanes, stride=strides, itemsize=itemsizes, offset=offsets
    )
    @settings(max_examples=80, deadline=None)
    def test_warp_granular_masks_equal_reference(
        self, data, n, stride, itemsize, offset
    ):
        addrs = affine_addrs(n, stride, itemsize, offset)
        mask = warp_mask(data, n)
        assert recorded_counts(addrs, mask, itemsize) == brute_force_summary(
            addrs, mask, itemsize, 128, 32
        )

    @given(data=st.data(), n=n_lanes, itemsize=itemsizes)
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_patterns_never_wrong(self, data, n, itemsize):
        idx = data.draw(
            st.lists(st.integers(0, 1 << 12), min_size=n, max_size=n)
        )
        addrs = BASE + np.asarray(idx, dtype=np.int64) * itemsize
        assert recorded_counts(addrs, None, itemsize) == brute_force_summary(
            addrs, None, itemsize, 128, 32
        )


class TestGlobalFastPathGeometries:
    """Global accesses on ``FastDispatch`` at every granularity the
    oracle takes."""

    @pytest.mark.parametrize("tx,sec", GEOMETRIES)
    @given(
        data=st.data(), n=n_lanes, stride=strides, itemsize=wide_itemsizes,
        offset=offsets,
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_equals_reference(self, tx, sec, data, n, stride, itemsize, offset):
        addrs = affine_addrs(n, stride, itemsize, offset)
        mask = warp_mask(data, n)
        assert recorded_counts(addrs, mask, itemsize, tx, sec) == brute_force_summary(
            addrs, mask, itemsize, tx, sec
        )
