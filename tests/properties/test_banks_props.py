"""Property-based tests: bank-conflict analysis vs a brute-force oracle."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.banks import analyze_shared_access

#: (warp_size, nbanks, bank_bytes): the default, 8-byte banks, half the
#: banks, half-size warps, and a bank count that is not a power of two
GEOMETRIES = [(32, 32, 4), (32, 32, 8), (32, 16, 4), (16, 32, 4), (32, 24, 4)]


def brute_force_degree(offsets, mask, warp_size=32, nbanks=32, bank_bytes=4):
    """The five summary fields of an access, counted warp by warp with sets.

    A lane's word is its byte offset floor-divided by ``bank_bytes``;
    a warp's degree is the most distinct words any one bank holds.
    """
    warps = lanes = passes = worst = 0
    for w in range(0, len(offsets), warp_size):
        by_bank: dict[int, set[int]] = {}
        for lane in range(w, min(w + warp_size, len(offsets))):
            if mask is None or mask[lane]:
                lanes += 1
                word = int(offsets[lane]) // bank_bytes
                by_bank.setdefault(word % nbanks, set()).add(word)
        if not by_bank:
            continue
        warps += 1
        degree = max(len(s) for s in by_bank.values())
        passes += degree
        worst = max(worst, degree)
    return warps, lanes, passes, passes - warps, worst


words_strategy = st.lists(st.integers(0, 2048), min_size=1, max_size=200)


class TestAgainstOracle:
    @given(words=words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_passes_match(self, words):
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, None)
        assert astuple(s) == brute_force_degree(offsets, None)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_masked_matches(self, data):
        words = data.draw(words_strategy)
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
        )
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, mask)
        assert astuple(s) == brute_force_degree(offsets, mask)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_dead_warps_between_live_ones(self, data):
        """Wholly masked warps between live ones cost no pass and leave
        their neighbours' bank counts alone."""
        words = data.draw(
            st.lists(st.integers(0, 2048), min_size=97, max_size=200)
        )
        mask = np.array(data.draw(
            st.lists(st.booleans(), min_size=len(words), max_size=len(words))
        ))
        mask[:32] = mask[64:96] = True   # live warps 0 and 2 ...
        mask[32:64] = False              # ... around a dead warp 1
        mask[96:128] = False
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, mask)
        assert astuple(s) == brute_force_degree(offsets, mask)


class TestInvariants:
    @given(words=words_strategy)
    @settings(max_examples=60, deadline=None)
    def test_degree_bounds(self, words):
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, None)
        assert s.n_warps <= s.passes <= s.n_warps * 32
        assert 0 <= s.conflict_extra == s.passes - s.n_warps
        assert s.max_degree <= 32

    @given(word=st.integers(0, 1000), n=st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_always_free(self, word, n):
        offsets = np.full(n, word, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, None)
        assert s.passes == 1

    @given(words=words_strategy)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, words):
        words32 = (words * 32)[:32]
        offsets = np.asarray(words32, dtype=np.int64) * 4
        rng = np.random.default_rng(1)
        shuffled = offsets.copy()
        rng.shuffle(shuffled)
        a = analyze_shared_access(offsets, None)
        b = analyze_shared_access(shuffled, None)
        assert a.passes == b.passes


class TestGeometries:
    """The oracle against the brute force at every bank geometry, over
    byte offsets that need not be word-aligned, for the mask shapes it
    treats specially: every lane live, mostly dead warps, none live."""

    @pytest.mark.parametrize("warp_size,nbanks,bank_bytes", GEOMETRIES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_lanes_live(self, warp_size, nbanks, bank_bytes, data):
        offsets = np.asarray(data.draw(
            st.lists(st.integers(0, 4096), min_size=1, max_size=160)
        ), dtype=np.int64)
        kw = dict(warp_size=warp_size, nbanks=nbanks, bank_bytes=bank_bytes)
        assert astuple(analyze_shared_access(offsets, None, **kw)) == (
            brute_force_degree(offsets, None, **kw)
        )

    @pytest.mark.parametrize("warp_size,nbanks,bank_bytes", GEOMETRIES)
    @given(
        interleaved=st.booleans(),
        blocks=st.integers(1, 4),
        log_block=st.integers(5, 8),
        log_stride=st.integers(0, 7),
        elem=st.sampled_from([1, 2, 4, 8, 12]),
        base=st.integers(0, 15),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_reduction_masks(
        self, warp_size, nbanks, bank_bytes, interleaved, blocks, log_block,
        log_stride, elem, base,
    ):
        # one step of a tree reduction: only the first ``stride`` threads
        # of each block are live, and thread t reads element t
        # (sequential addressing) or 2 * stride * t (interleaved)
        block = 1 << log_block
        stride = 1 << min(log_stride, log_block - 1)
        tid = np.arange(blocks * block) % block
        spread = 2 * stride if interleaved else 1
        offsets = base + tid.astype(np.int64) * spread * elem
        mask = tid < stride
        kw = dict(warp_size=warp_size, nbanks=nbanks, bank_bytes=bank_bytes)
        assert astuple(analyze_shared_access(offsets, mask, **kw)) == (
            brute_force_degree(offsets, mask, **kw)
        )

    @pytest.mark.parametrize("warp_size,nbanks,bank_bytes", GEOMETRIES)
    @given(n=st.integers(0, 200), base=st.integers(0, 4096))
    @settings(max_examples=20, deadline=None)
    def test_no_lane_live(self, warp_size, nbanks, bank_bytes, n, base):
        offsets = base + np.arange(n, dtype=np.int64) * 3
        mask = np.zeros(n, dtype=bool)
        kw = dict(warp_size=warp_size, nbanks=nbanks, bank_bytes=bank_bytes)
        assert astuple(analyze_shared_access(offsets, mask, **kw)) == (
            brute_force_degree(offsets, mask, **kw)
        ) == (0, 0, 0, 0, 0)
