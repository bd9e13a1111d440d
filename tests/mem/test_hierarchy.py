"""Memory-hierarchy resolution: L1/L2/DRAM traffic."""

import numpy as np
import pytest

from repro.arch.presets import TESLA_K80, TESLA_V100
from repro.mem.coalesce import analyze_access
from repro.mem.hierarchy import _warp_ids, resolve_traffic
from repro.mem.trace import AccessTrace


def make_trace(n_lanes):
    return AccessTrace.for_grid(n_lanes)


def add_access(trace, addrs, *, mask=None, itemsize=4, space="global", is_store=False):
    summary = analyze_access(np.asarray(addrs, dtype=np.int64), mask, itemsize)
    trace.record(
        space=space, is_store=is_store, itemsize=itemsize,
        summary=summary, addrs=addrs, mask=mask,
    )
    return summary


BASE = 0x200000


class TestColdStream:
    def test_read_traffic_equals_footprint(self):
        n = 1 << 14
        t = make_trace(n)
        add_access(t, BASE + np.arange(n) * 4)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.dram_read_bytes == pytest.approx(n * 4, rel=0.01)
        assert rep.dram_write_bytes == 0

    def test_store_traffic_is_writeback(self):
        n = 1 << 14
        t = make_trace(n)
        add_access(t, BASE + np.arange(n) * 4, is_store=True)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.dram_write_bytes == pytest.approx(n * 4, rel=0.01)
        assert rep.dram_read_bytes == 0

    def test_empty_trace(self):
        rep = resolve_traffic(make_trace(0), TESLA_V100, resident_warps_per_sm=64)
        assert rep.dram_bytes == 0


class TestTemporalReuse:
    def test_rereading_hits_l1(self):
        n = 1 << 12
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        add_access(t, addrs)
        add_access(t, addrs)  # same line set again
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=4)
        assert rep.l1_hit_rate == pytest.approx(0.5, abs=0.05)
        assert rep.dram_read_bytes == pytest.approx(n * 4, rel=0.05)

    def test_rewriting_not_recharged(self):
        n = 1 << 12
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        add_access(t, addrs, is_store=True)
        add_access(t, addrs, is_store=True)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=4)
        # one eventual write-back per sector, not two
        assert rep.dram_write_bytes == pytest.approx(n * 4, rel=0.05)

    def test_l1_capacity_thrash_goes_to_l2(self):
        # per-warp working set far beyond the L1 share -> misses; but the
        # L2 (scaled) still holds the re-read stream
        n = 1 << 12
        t = make_trace(n)
        stride_addrs = BASE + (np.arange(n) * 512) * 4  # scattered lines
        add_access(t, stride_addrs)
        add_access(t, stride_addrs)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.l1_hit_rate < 0.99
        assert rep.l2_hits > 0


class TestArchitectureFlags:
    def test_kepler_global_bypasses_l1(self):
        n = 1 << 12
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        add_access(t, addrs)
        add_access(t, addrs)
        rep = resolve_traffic(t, TESLA_K80, resident_warps_per_sm=32)
        assert rep.l1_lookups == 0
        assert rep.dram_uncached_read_bytes >= 0
        # the reuse is caught by L2 instead
        assert rep.l2_hit_rate > 0.4

    def test_kepler_texture_path_cached(self):
        n = 1 << 12
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        add_access(t, addrs, space="texture")
        add_access(t, addrs, space="texture")
        rep = resolve_traffic(t, TESLA_K80, resident_warps_per_sm=32)
        assert rep.tex_lookups > 0
        assert rep.tex_hits > 0
        assert rep.dram_uncached_read_bytes == 0

    def test_volta_texture_same_as_global(self):
        n = 1 << 12
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        add_access(t, addrs, space="texture")
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        # unified path: accounted as L1, not a separate texture cache
        assert rep.tex_lookups == 0
        assert rep.l1_lookups > 0


class TestConstantSpace:
    def test_constant_not_in_dram_traffic(self):
        n = 1 << 10
        t = make_trace(n)
        add_access(t, BASE + np.arange(n) * 4, space="constant")
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.dram_bytes == 0
        assert rep.per_space.get("constant", 0) > 0


class TestLatencyMix:
    def test_cold_stream_latency_near_dram(self):
        n = 1 << 14
        t = make_trace(n)
        add_access(t, BASE + np.arange(n) * 4)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.avg_load_latency_cycles == pytest.approx(
            TESLA_V100.dram_latency_cycles, rel=0.1
        )

    def test_hot_stream_latency_low(self):
        n = 1 << 10
        t = make_trace(n)
        addrs = BASE + np.arange(n) * 4
        for _ in range(4):
            add_access(t, addrs)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=2)
        assert rep.avg_load_latency_cycles < TESLA_V100.dram_latency_cycles / 2


class TestBurstFactorApplied:
    def test_scattered_sectors_double_dram(self):
        n = 1 << 12
        t = make_trace(n)
        # 64B-spaced 4B loads: every sector isolated
        add_access(t, BASE + np.arange(n) * 64)
        rep = resolve_traffic(t, TESLA_V100, resident_warps_per_sm=64)
        assert rep.dram_read_bytes == pytest.approx(n * 32 * 2, rel=0.05)


class TestWarpIds:
    """The row-wise sort equals each warp's ``np.unique`` list, concatenated."""

    @staticmethod
    def per_warp_unique(addrs, mask, itemsize, granularity):
        ids, warps = [], []
        for w, (row_a, row_m) in enumerate(zip(addrs, mask)):
            a = row_a[row_m]
            ends = [a // granularity, (a + itemsize - 1) // granularity]
            u = np.unique(np.concatenate(ends))
            ids.append(u)
            warps.append(np.full(u.size, w))
        return np.concatenate(ids), np.concatenate(warps)

    @pytest.mark.parametrize("granularity", [128, 32])
    @pytest.mark.parametrize("itemsize", [1, 4, 8, 16])
    def test_matches_per_warp_unique(self, itemsize, granularity):
        rng = np.random.default_rng(itemsize * granularity)
        warps = 8
        # a misaligned base, so items straddle line and sector boundaries
        base = BASE + 4 * 128 - 3
        contiguous = base + np.arange(warps * 32) * itemsize
        scattered = base + rng.integers(0, 1 << 16, warps * 32) * itemsize
        addrs = np.where(np.arange(warps * 32) < 128, contiguous, scattered)
        addrs = addrs.reshape(warps, 32)
        mask = rng.random((warps, 32)) < 0.7
        mask[1] = False           # an all-inactive warp
        mask[2] = False
        mask[2, 17] = True        # a single active lane
        mask[3] = True
        straddles = (addrs // granularity != (addrs + itemsize - 1) // granularity) & mask
        assert straddles.any() == (itemsize > 1)
        ids, owners = _warp_ids(addrs, mask, itemsize, granularity)
        exp_ids, exp_owners = self.per_warp_unique(addrs, mask, itemsize, granularity)
        assert ids.tolist() == exp_ids.tolist()
        assert owners.tolist() == exp_owners.tolist()
        assert 1 not in owners.tolist() and owners.tolist().count(2) in (1, 2)

    def test_straddling_item_touches_both_lines(self):
        addrs = np.full((1, 32), BASE + 126)
        mask = np.zeros((1, 32), dtype=bool)
        mask[0, 0] = True
        ids, owners = _warp_ids(addrs, mask, 4, 128)
        assert ids.tolist() == [(BASE + 126) // 128, (BASE + 129) // 128]
        assert owners.tolist() == [0, 0]

    def test_no_active_lanes(self):
        ids, owners = _warp_ids(
            np.zeros((3, 32), dtype=np.int64), np.zeros((3, 32), dtype=bool), 4, 32
        )
        assert ids.size == 0 and owners.size == 0
