"""Thread context: geometry, masks, divergence, loops, intrinsics."""

import numpy as np
import pytest

from repro.arch.presets import TESLA_V100
from repro.common.errors import KernelRuntimeError
from repro.simt.context import ThreadContext
from repro.simt.dim3 import Dim3


def ctx_for(grid=2, block=64):
    return ThreadContext(TESLA_V100, Dim3.of(grid), Dim3.of(block), name="t")


class TestGeometry:
    def test_lane_layout_1d(self):
        c = ctx_for(grid=2, block=64)
        assert c.total_lanes == 128
        assert np.array_equal(c.thread_idx_x.data[:64], np.arange(64))
        assert np.all(c.block_idx_x.data[:64] == 0)
        assert np.all(c.block_idx_x.data[64:] == 1)

    def test_global_tid(self):
        c = ctx_for(grid=3, block=32)
        assert np.array_equal(c.global_thread_id().data, np.arange(96))

    def test_2d_block(self):
        c = ctx_for(grid=1, block=(8, 4))
        assert np.array_equal(c.thread_idx_x.data[:8], np.arange(8))
        assert c.thread_idx_y.data[8] == 1
        assert c.thread_idx_y.data[31] == 3

    def test_2d_grid(self):
        c = ctx_for(grid=(2, 2), block=32)
        assert c.block_idx_x.data[32] == 1
        assert c.block_idx_y.data[64] == 1

    def test_3d(self):
        c = ctx_for(grid=(2, 2, 2), block=(4, 4, 2))
        assert c.thread_idx_z.data[16] == 1
        assert c.block_idx_z.data[-1] == 1

    def test_block_padded_to_warp(self):
        # 48-thread blocks occupy 2 warps each; warps never span blocks
        c = ctx_for(grid=2, block=48)
        assert c.padded_block_size == 64
        assert c.total_lanes == 128
        m = c.mask.reshape(-1, 32)
        assert m[0].all()          # warp 0: lanes 0-31 of block 0
        assert m[1][:16].all() and not m[1][16:].any()  # padding dead

    def test_lane_id(self):
        c = ctx_for(grid=1, block=64)
        assert np.array_equal(c.lane_id().data, np.arange(64) % 32)

    def test_total_threads(self):
        assert ctx_for(grid=4, block=128).total_threads() == 512


class TestMaskStack:
    def test_push_pop(self):
        c = ctx_for()
        base_active = c.active_lanes
        m = c.mask.copy()
        m[:64] = False
        c.push_mask(m)
        assert c.active_lanes == base_active - 64
        c.pop_mask()
        assert c.active_lanes == base_active

    def test_underflow_raises(self):
        with pytest.raises(KernelRuntimeError):
            ctx_for().pop_mask()

    def test_active_warps_counts_partial(self):
        c = ctx_for(grid=1, block=64)
        m = np.zeros(64, dtype=bool)
        m[0] = True  # one lane in warp 0
        c.push_mask(m)
        assert c.active_warps == 1
        assert c.active_lanes == 1


class TestBranch:
    def test_both_sides_execute_masked(self):
        c = ctx_for(grid=1, block=64)
        tid = c.global_thread_id()
        seen = {"then": 0, "else": 0}

        def then():
            seen["then"] = c.active_lanes

        def els():
            seen["else"] = c.active_lanes

        c.branch((tid % 2) == 0, then, els)
        assert seen == {"then": 32, "else": 32}

    def test_divergence_detected(self):
        c = ctx_for(grid=1, block=64)
        tid = c.global_thread_id()
        c.branch((tid % 2) == 0, lambda: None, lambda: None)
        assert c.stats.divergent_branches == 2
        assert c.stats.branches == 2

    def test_uniform_branch_not_divergent(self):
        c = ctx_for(grid=1, block=64)
        tid = c.global_thread_id()
        c.branch((tid // 32) % 2 == 0, lambda: None, lambda: None)
        assert c.stats.divergent_branches == 0
        assert c.stats.branches == 2

    def test_empty_side_skipped(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        called = []
        c.branch(tid < 0, lambda: called.append("then"), lambda: called.append("else"))
        assert called == ["else"]

    def test_mask_restored_after_exception(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        with pytest.raises(RuntimeError):
            c.branch(tid >= 0, lambda: (_ for _ in ()).throw(RuntimeError()), None)
        assert not c._mask_stack


class TestMaskedUpdate:
    def test_inactive_lanes_keep_old(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        old = c.zeros(np.float32)
        result = {}

        def body():
            result["v"] = c.masked(old, old + 1.0)

        c.if_active(tid < 10, body)
        assert result["v"].data[:10].sum() == 10
        assert result["v"].data[10:].sum() == 0


class TestSelect:
    def test_select(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        out = c.select(tid < 16, c.const(1.0), c.const(2.0))
        assert np.all(out.data[:16] == 1.0)
        assert np.all(out.data[16:] == 2.0)


class TestWhileActive:
    def test_iterates_until_all_done(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()

        def body(count, tid):
            count = c.masked(count, count + 1)
            return count < tid, count, tid

        zero = c.zeros(np.int64)
        count, _ = c.while_active(zero < tid, body, zero, tid)
        # lane k needs k iterations; the warp issues until the slowest lane
        assert np.array_equal(count.data, np.arange(32))
        # 31 iterations: per iteration an add, a compare and the back-edge
        # branch, plus the entry compare
        assert c.stats.warp_instructions == 1 + 31 * 3

    def test_never_active(self):
        c = ctx_for(grid=1, block=32)
        cond = c.const(0, np.int64) > 1
        calls = []
        assert c.while_active(cond, lambda: calls.append(1) or (cond,)) == ()
        assert calls == []

    def test_max_iterations_guard(self):
        c = ctx_for(grid=1, block=32)
        always = c.const(1, np.int64) > 0
        with pytest.raises(KernelRuntimeError):
            c.while_active(always, lambda a: (a, a), always, max_iterations=10)
        assert not c._mask_stack and c.total_lanes == 32

    def test_mask_balanced(self):
        c = ctx_for(grid=1, block=32)
        cond = c.const(0, np.int64) > 1
        c.while_active(cond, lambda: (cond,))
        assert not c._mask_stack

    def test_body_must_return_every_carried_value(self):
        c = ctx_for(grid=1, block=32)
        go = c.const(1, np.int64) > 0
        with pytest.raises(KernelRuntimeError, match="carried value"):
            c.while_active(go, lambda a, b: (a > 1, a), c.zeros(), c.zeros())

class TestStridedRange:
    def test_uniform_trip(self):
        c = ctx_for(grid=1, block=32)
        total = []
        for j in c.strided_range(0, 4, 1):
            total.append(j.data[0])
        assert total == [0, 1, 2, 3]

    def test_per_lane_bounds(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        sums = np.zeros(32, dtype=np.int64)
        for j in c.strided_range(0, tid, 1):
            sums[c.mask] += 1
        assert np.array_equal(sums, np.arange(32))

    def test_cyclic_pattern(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        seen = []
        for j in c.strided_range(tid, 64, 32):
            seen.append(j.data.copy())
        assert len(seen) == 2
        assert np.array_equal(seen[1][:32], np.arange(32) + 32)

    def test_empty_range(self):
        c = ctx_for(grid=1, block=32)
        assert list(c.strided_range(5, 5, 1)) == []

    def test_mask_balanced_after(self):
        c = ctx_for(grid=1, block=32)
        tid = c.global_thread_id()
        for _ in c.strided_range(0, tid, 1):
            pass
        assert not c._mask_stack


class TestShuffles:
    def test_shfl_down(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        out = c.shfl_down(v, 16)
        assert np.array_equal(out.data[:16], np.arange(16) + 16)
        # out-of-range lanes keep their own value
        assert np.array_equal(out.data[16:], np.arange(16) + 16)

    def test_shfl_up(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        out = c.shfl_up(v, 1)
        assert out.data[0] == 0
        assert np.array_equal(out.data[1:], np.arange(31))

    def test_shfl_xor(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        out = c.shfl_xor(v, 1)
        assert out.data[0] == 1 and out.data[1] == 0

    def test_shfl_idx_broadcast(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        out = c.shfl_idx(v, 5)
        assert np.all(out.data == 5)

    def test_shfl_does_not_cross_warps(self):
        c = ctx_for(grid=1, block=64)
        v = c.as_lanevec(np.arange(64, dtype=np.int64))
        out = c.shfl_down(v, 16)
        # lane 16 of warp 1 (global 48): source lane 32 is out of the warp
        # -> keeps its own value; lane 0 of warp 1 reads its warp's lane 16
        assert out.data[48] == 48
        assert out.data[32] == 48

    def test_shfl_width_segments(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        out = c.shfl_down(v, 8, width=16)
        assert out.data[0] == 8
        assert out.data[8] == 8  # would cross the 16-lane segment -> self

    def test_shuffle_counted(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(np.arange(32, dtype=np.int64))
        c.shfl_down(v, 1)
        assert c.stats.shuffles == 1


class TestSyncthreads:
    def test_counts_barrier(self):
        c = ctx_for()
        c.syncthreads()
        assert c.stats.barriers == 1

    def test_divergent_sync_raises(self):
        c = ctx_for(grid=1, block=64)
        tid = c.global_thread_id()
        with pytest.raises(KernelRuntimeError):
            c.if_active(tid < 10, c.syncthreads)

    def test_divergent_sync_unsafe_allowed(self):
        c = ctx_for(grid=1, block=64)
        tid = c.global_thread_id()
        c.if_active(tid < 10, lambda: c.syncthreads(unsafe=True))
        assert c.stats.barriers == 1


class TestMathIntrinsics:
    def test_sqrt(self):
        c = ctx_for(grid=1, block=32)
        out = c.sqrt(c.const(4.0))
        assert np.all(out.data == 2.0)

    def test_rsqrt_exp_log_sin_cos(self):
        c = ctx_for(grid=1, block=32)
        assert np.allclose(c.rsqrt(c.const(4.0)).data, 0.5)
        assert np.allclose(c.exp(c.const(0.0)).data, 1.0)
        assert np.allclose(c.log(c.const(1.0)).data, 0.0)
        assert np.allclose(c.sin(c.const(0.0)).data, 0.0)
        assert np.allclose(c.cos(c.const(0.0)).data, 1.0)

    def test_fma(self):
        c = ctx_for(grid=1, block=32)
        out = c.fma(c.const(2.0), 3.0, 4.0)
        assert np.all(out.data == 10.0)

    def test_min_max(self):
        c = ctx_for(grid=1, block=32)
        assert np.all(c.min(c.const(2.0), 1.0).data == 1.0)
        assert np.all(c.max(c.const(2.0), 1.0).data == 2.0)

    def test_special_costs_more_than_fp32(self):
        c = ctx_for(grid=1, block=32)
        b = c.stats.issue_cycles
        c.sqrt(c.const(4.0))
        sqrt_cost = c.stats.issue_cycles - b
        b = c.stats.issue_cycles
        _ = c.const(4.0) * 2.0
        mul_cost = c.stats.issue_cycles - b
        assert sqrt_cost > mul_cost


class TestAsLaneVec:
    def test_scalar(self):
        c = ctx_for(grid=1, block=32)
        v = c.as_lanevec(3)
        assert v.data.shape == (32,)

    def test_wrong_shape_raises(self):
        c = ctx_for(grid=1, block=32)
        with pytest.raises(KernelRuntimeError):
            c.as_lanevec(np.zeros(7))
