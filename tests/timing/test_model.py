"""The roofline timing model: bounds, limits, launch overheads."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.presets import TESLA_K80, TESLA_V100
from repro.common.errors import SpecError
from repro.mem.hierarchy import resolve_traffic
from repro.simt.executor import run_kernel
from repro.simt.kernel import kernel
from repro.timing import model as timing_model
from repro.timing.model import estimate_kernel_time, launch_overhead
from tests.conftest import make_device_array


@kernel
def streaming(ctx, x, y, n):
    """Memory-bound: one coalesced load + store per thread."""
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(y, i, ctx.load(x, i)))


@kernel
def flops(ctx, x, n, rounds):
    """Compute-bound: many FMAs per element."""
    i = ctx.global_thread_id()

    def body():
        v = ctx.load(x, i)
        for _ in range(rounds):
            v = ctx.fma(v, 1.0001, 0.1)
        ctx.store(x, i, v)

    ctx.if_active(i < n, body)


def run(kdef, args, n, gpu=TESLA_V100, block=256):
    return run_kernel(kdef, -(-n // block), block, args, gpu=gpu)


class TestLaunchOverhead:
    def test_kinds(self):
        assert launch_overhead(TESLA_V100, "host") == TESLA_V100.kernel_launch_overhead_s
        assert launch_overhead(TESLA_V100, "device") == TESLA_V100.device_launch_overhead_s
        assert launch_overhead(TESLA_V100, "graph") == TESLA_V100.graph_node_overhead_s
        assert launch_overhead(TESLA_V100, "none") == 0.0

    def test_unknown(self):
        with pytest.raises(SpecError):
            launch_overhead(TESLA_V100, "warp")

    def test_device_cheaper_than_host(self):
        assert (
            TESLA_V100.device_launch_overhead_s
            < TESLA_V100.kernel_launch_overhead_s
        )


class TestBounds:
    def test_streaming_is_dram_bound(self, allocator):
        n = 1 << 20
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        t = estimate_kernel_time(run(streaming, (x, y, n), n), TESLA_V100)
        assert t.limiter == "dram"
        # effective bandwidth between 50% and 100% of peak
        bw = 2 * n * 4 / t.exec_s
        assert 0.5 * TESLA_V100.dram_bandwidth < bw <= TESLA_V100.dram_bandwidth

    def test_flops_is_issue_bound(self, allocator):
        n = 1 << 16
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        t = estimate_kernel_time(run(flops, (x, n, 64), n), TESLA_V100)
        assert t.limiter == "issue"

    def test_tiny_grid_latency_floor(self, allocator):
        x = make_device_array(allocator, np.zeros(32, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(32, dtype=np.float32))
        t = estimate_kernel_time(run(streaming, (x, y, 32), 32, block=32), TESLA_V100)
        assert t.bounds["latency"] >= t.bounds["dram"]

    def test_total_includes_overhead(self, allocator):
        n = 1 << 12
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        stats = run(streaming, (x, y, n), n)
        t_host = estimate_kernel_time(stats, TESLA_V100, launch_kind="host")
        t_none = estimate_kernel_time(stats, TESLA_V100, launch_kind="none")
        assert t_host.time_s == pytest.approx(
            t_none.time_s + TESLA_V100.kernel_launch_overhead_s
        )
        assert t_host.exec_s == pytest.approx(t_none.exec_s)

    def test_bound_fraction(self, allocator):
        n = 1 << 16
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        t = estimate_kernel_time(run(streaming, (x, y, n), n), TESLA_V100)
        assert t.bound_fraction(t.limiter) == 1.0
        assert 0 <= t.bound_fraction("issue") <= 1.0


class TestSmLimit:
    def test_fewer_sms_slower(self, allocator):
        n = 1 << 18
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        stats = run(flops, (x, n, 128), n)
        t_full = estimate_kernel_time(stats, TESLA_V100)
        t_quarter = estimate_kernel_time(stats, TESLA_V100, sm_limit=20)
        assert t_quarter.exec_s > 3 * t_full.exec_s

    def test_limit_above_demand_no_effect(self, allocator):
        n = 1 << 14
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        stats = run(flops, (x, n, 8), n)
        t1 = estimate_kernel_time(stats, TESLA_V100)
        t2 = estimate_kernel_time(stats, TESLA_V100, sm_limit=1000)
        assert t1.exec_s == t2.exec_s


class TestArchitectureEffects:
    def test_k80_uncached_path_derated(self, allocator):
        n = 1 << 18
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        stats = run(streaming, (x, y, n), n, gpu=TESLA_K80)
        t = estimate_kernel_time(stats, TESLA_K80)
        # uncached global reads achieve far below peak bandwidth
        read_bw = n * 4 / t.bounds["dram"]
        assert read_bw < 0.6 * TESLA_K80.dram_bandwidth

    def test_bigger_gpu_faster(self, allocator):
        n = 1 << 18
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        s_v = run(streaming, (x, y, n), n, gpu=TESLA_V100)
        s_k = run(streaming, (x, y, n), n, gpu=TESLA_K80)
        t_v = estimate_kernel_time(s_v, TESLA_V100).exec_s
        t_k = estimate_kernel_time(s_k, TESLA_K80).exec_s
        assert t_v < t_k


class TestResolvedOnce:
    """The traffic depends on the trace, the GPU and the occupancy only,
    so each launch's trace is resolved once however often it is timed."""

    @pytest.fixture
    def resolutions(self, monkeypatch):
        calls = []
        real = timing_model.resolve_traffic

        def counting(trace, gpu, **kw):
            calls.append(gpu.name)
            return real(trace, gpu, **kw)

        monkeypatch.setattr(timing_model, "resolve_traffic", counting)
        return calls

    @pytest.fixture
    def stats(self, allocator):
        n = 1 << 14
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        return run(streaming, (x, y, n), n)

    def test_sm_limit_and_launch_kind_reuse_the_resolution(self, stats, resolutions):
        full = estimate_kernel_time(stats, TESLA_V100)
        part = estimate_kernel_time(stats, TESLA_V100, sm_limit=8, launch_kind="graph")
        assert len(resolutions) == 1
        assert part.traffic is full.traffic

    def test_memoised_report_equals_a_fresh_resolution(self, stats, resolutions):
        estimate_kernel_time(stats, TESLA_V100)
        t = estimate_kernel_time(stats, TESLA_V100, sm_limit=4)
        fresh = resolve_traffic(
            stats.trace, TESLA_V100, resident_warps_per_sm=t.occupancy.warps_per_sm
        )
        assert t.traffic.as_dict() == fresh.as_dict()

    def test_appended_records_resolve_again(self, stats, allocator, resolutions):
        before = estimate_kernel_time(stats, TESLA_V100)
        n = 1 << 12
        x = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        y = make_device_array(allocator, np.zeros(n, dtype=np.float32))
        stats.merge_child(run(streaming, (x, y, n), n))
        after = estimate_kernel_time(stats, TESLA_V100)
        assert len(resolutions) == 2
        assert after.traffic.bytes_requested > before.traffic.bytes_requested

    def test_another_gpu_resolves_again(self, stats, resolutions):
        estimate_kernel_time(stats, TESLA_V100)
        k80 = estimate_kernel_time(stats, TESLA_K80)
        assert resolutions == [TESLA_V100.name, TESLA_K80.name]
        fresh = resolve_traffic(
            stats.trace, TESLA_K80, resident_warps_per_sm=k80.occupancy.warps_per_sm
        )
        assert k80.traffic.as_dict() == fresh.as_dict()

    def test_equal_gpu_reuses_the_resolution(self, stats, resolutions):
        estimate_kernel_time(stats, TESLA_V100)
        estimate_kernel_time(stats, replace(TESLA_V100))
        assert len(resolutions) == 1

    def test_another_occupancy_resolves_again(self, stats, resolutions):
        before = estimate_kernel_time(stats, TESLA_V100)
        stats.registers_per_thread = 255  # fewer resident warps per SM
        t = estimate_kernel_time(stats, TESLA_V100)
        assert t.occupancy.warps_per_sm < before.occupancy.warps_per_sm
        assert len(resolutions) == 2
        fresh = resolve_traffic(
            stats.trace, TESLA_V100, resident_warps_per_sm=t.occupancy.warps_per_sm
        )
        assert t.traffic.as_dict() == fresh.as_dict()
