"""Property-based tests: bank-conflict analysis vs a brute-force oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.banks import analyze_shared_access


def brute_force_degree(words, mask):
    """Max per-bank multiplicity of distinct words, per warp; summed."""
    passes = 0
    worst = 0
    warps = 0
    for w in range(0, len(words), 32):
        by_bank: dict[int, set[int]] = {}
        active = False
        for lane in range(w, min(w + 32, len(words))):
            if mask is None or mask[lane]:
                active = True
                word = int(words[lane])
                by_bank.setdefault(word % 32, set()).add(word)
        if not active:
            continue
        warps += 1
        degree = max((len(s) for s in by_bank.values()), default=1)
        passes += degree
        worst = max(worst, degree)
    return warps, passes, worst


words_strategy = st.lists(st.integers(0, 2048), min_size=1, max_size=200)


class TestAgainstOracle:
    @given(words=words_strategy)
    @settings(max_examples=80, deadline=None)
    def test_passes_match(self, words):
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, None)
        warps, passes, worst = brute_force_degree(words, None)
        assert s.n_warps == warps
        assert s.passes == passes
        assert s.max_degree == worst

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_masked_matches(self, data):
        words = data.draw(words_strategy)
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
        )
        offsets = np.asarray(words, dtype=np.int64) * 4
        s = analyze_shared_access(offsets, mask)
        warps, passes, worst = brute_force_degree(words, mask)
        assert (s.n_warps, s.passes, s.max_degree) == (warps, passes, worst)

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
        warps, passes, worst = brute_force_degree(words, mask)
        assert (s.n_warps, s.passes, s.max_degree) == (warps, passes, worst)


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
