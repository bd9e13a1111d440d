"""Property-based tests: LRU cache invariants, and the batched array
LRU against the scalar :class:`LRUCache` oracle."""

from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import BatchedLRU, LRUCache, _mix, _mix_array

streams = st.lists(st.integers(0, 64), min_size=1, max_size=300)


def oracle_fully_associative(stream, capacity):
    """Reference fully-associative LRU."""
    lru: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for line in stream:
        if line in lru:
            hits += 1
            lru.move_to_end(line)
        else:
            if len(lru) >= capacity:
                lru.popitem(last=False)
            lru[line] = None
    return hits


class TestOracle:
    @given(stream=streams, capacity=st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_fully_associative_matches(self, stream, capacity):
        c = LRUCache(capacity, ways=capacity)
        c.access_many(stream)
        assert c.hits == oracle_fully_associative(stream, capacity)


class TestInvariants:
    @given(stream=streams, capacity=st.integers(0, 64), ways=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_counts_consistent(self, stream, capacity, ways):
        c = LRUCache(capacity, ways=ways)
        c.access_many(stream)
        assert c.hits + c.misses == len(stream)
        assert len(c) <= capacity if capacity else len(c) == 0
        assert c.evictions <= c.misses

    @given(stream=streams, capacity=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_bigger_cache_never_worse(self, stream, capacity):
        """LRU inclusion property: more capacity, same ways ratio -> >= hits."""
        small = LRUCache(capacity, ways=capacity)
        big = LRUCache(capacity * 2, ways=capacity * 2)
        small.access_many(stream)
        big.access_many(stream)
        assert big.hits >= small.hits

    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_dirtied_bounded_by_distinct_writes(self, stream):
        c = LRUCache(16)
        c.access_many(stream, write=True)
        assert c.lines_dirtied >= len(set(stream))
        assert c.lines_dirtied <= len(stream)

    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_infinite_cache_misses_equal_distinct(self, stream):
        c = LRUCache(1 << 20, ways=16)
        c.access_many(stream)
        # with a huge hashed cache, conflict misses are absent
        assert c.misses == len(set(stream))


@st.composite
def chunked_streams(draw):
    """Program-ordered ``(cache, line)`` accesses split into ``access``
    calls, each call all reads or all writes; lines are drawn from a
    small pool of ids up to 2**40 so streams re-touch lines."""
    pool = draw(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=48, unique=True))
    lines = st.sampled_from(pool)
    caches = draw(st.integers(1, 4))
    access = st.tuples(st.integers(0, caches - 1), lines)
    calls = draw(
        st.lists(
            st.tuples(st.lists(access, max_size=80), st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    return caches, calls


class TestBatchedMatchesScalar:
    @given(
        # small capacities too, so streams evict
        capacity=st.one_of(st.integers(1, 24), st.integers(1, 512)),
        ways=st.sampled_from([1, 2, 4, 8, 16]),
        streams=chunked_streams(),
    )
    # capacity below ways: one set
    @example(3, 4, (1, [([(0, 1), (0, 2), (0, 3), (0, 4), (0, 1)], False)]))
    # capacity not a multiple of ways, two caches
    @example(10, 4, (2, [([(0, 5), (1, 5), (0, 9)] * 4, True)]))
    # recency carries across calls: the re-touched line is not the victim
    @example(2, 2, (1, [([(0, 1), (0, 2)], False), ([(0, 1)], False),
                        ([(0, 3), (0, 1)], False)]))
    # a dirty line evicted by a read: its successor arrives clean
    @example(1, 1, (1, [([(0, 1)], True), ([(0, 2)], False), ([(0, 2)], True)]))
    @settings(max_examples=200, deadline=None)
    def test_hits_and_dirtied_equal(self, capacity, ways, streams):
        n_caches, calls = streams
        oracle = [LRUCache(capacity, ways) for _ in range(n_caches)]
        batched = BatchedLRU(capacity, ways, caches=n_caches)
        assert batched.ways == oracle[0].ways
        assert batched.n_sets == oracle[0].n_sets
        for accesses, write in calls:
            before = sum(c.lines_dirtied for c in oracle)
            expected = [oracle[c].access(line, write=write) for c, line in accesses]
            which = np.array([c for c, _ in accesses], dtype=np.int64)
            lines = np.array([line for _, line in accesses], dtype=np.int64)
            hits, dirtied = batched.access(
                batched.set_index(lines, which), lines, write=write
            )
            assert hits.tolist() == expected
            assert dirtied == sum(c.lines_dirtied for c in oracle) - before

    @given(ids=st.lists(st.integers(0, (1 << 63) - 1), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_array_hash_equals_scalar(self, ids):
        mixed = _mix_array(np.array(ids, dtype=np.int64))
        assert mixed.tolist() == [_mix(i) for i in ids]
