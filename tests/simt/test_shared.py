"""Per-block shared memory: functional semantics and conflict charging."""

import numpy as np
import pytest

from repro.arch.presets import RTX3080_SYSTEM, TESLA_V100
from repro.common.errors import InvalidAddressError, LaunchConfigError
from repro.host.runtime import CudaLite
from repro.sanitize import Sanitizer
from repro.simt.context import ThreadContext
from repro.simt.dim3 import Dim3
from repro.simt.kernel import kernel


def ctx_for(grid=2, block=64):
    return ThreadContext(TESLA_V100, Dim3.of(grid), Dim3.of(block), name="t")


class TestAllocation:
    def test_tracks_bytes(self):
        c = ctx_for()
        c.shared_array(256, np.float32)
        assert c.shared_bytes_per_block == 1024

    def test_multiple_arrays_accumulate(self):
        c = ctx_for()
        c.shared_array(128, np.float32)
        c.shared_array(128, np.float64)
        assert c.shared_bytes_per_block == 512 + 1024

    def test_over_limit_raises(self):
        c = ctx_for()
        with pytest.raises(LaunchConfigError):
            c.shared_array(TESLA_V100.shared_mem_per_block // 4 + 1, np.float32)

    def test_zero_dim_rejected(self):
        c = ctx_for()
        with pytest.raises(LaunchConfigError):
            c.shared_array(0, np.float32)


class TestLoadStore:
    def test_per_block_isolation(self):
        c = ctx_for(grid=2, block=64)
        s = c.shared_array(64, np.float32)
        s.store(c.thread_idx_x, c.block_idx_x.astype(np.float32) + 1.0)
        # block 0 sees 1.0, block 1 sees 2.0
        assert np.all(s.block_view(0) == 1.0)
        assert np.all(s.block_view(1) == 2.0)

    def test_roundtrip(self):
        c = ctx_for(grid=1, block=64)
        s = c.shared_array(64, np.float32)
        tid = c.thread_idx_x
        s.store(tid, tid.astype(np.float32))
        out = s.load(tid)
        assert np.array_equal(out.data, np.arange(64, dtype=np.float32))

    def test_2d_indexing(self):
        c = ctx_for(grid=1, block=(8, 8))
        s = c.shared_array((8, 8), np.float32)
        tx, ty = c.thread_idx_x, c.thread_idx_y
        s.store((ty, tx), (ty * 8 + tx).astype(np.float32))
        out = s.load((ty, tx))
        assert np.array_equal(out.data, np.arange(64, dtype=np.float32))

    def test_wrong_arity_raises(self):
        c = ctx_for(grid=1, block=(8, 8))
        s = c.shared_array((8, 8), np.float32)
        with pytest.raises(InvalidAddressError):
            s.load((c.thread_idx_x, c.thread_idx_y, c.thread_idx_x))

    def test_bounds_checked(self):
        c = ctx_for(grid=1, block=64)
        s = c.shared_array(32, np.float32)
        with pytest.raises(InvalidAddressError):
            s.load(c.thread_idx_x)  # lanes 32..63 out of range

    def test_masked_lanes_untouched(self):
        c = ctx_for(grid=1, block=64)
        s = c.shared_array(64, np.float32)
        tid = c.thread_idx_x
        c.if_active(tid < 8, lambda: s.store(tid, c.const(9.0)))
        bv = s.block_view(0)
        assert bv[:8].sum() == 72.0
        assert bv[8:].sum() == 0.0


class TestConflictCharging:
    def test_conflict_free_cost(self):
        c = ctx_for(grid=1, block=32)
        s = c.shared_array(32, np.float32)
        before = c.stats.issue_cycles
        s.load(c.thread_idx_x)
        assert c.stats.issue_cycles - before == 1
        assert c.stats.bank_conflict_extra == 0

    def test_two_way_conflict_cost(self):
        c = ctx_for(grid=1, block=32)
        s = c.shared_array(64, np.float32)
        idx = c.thread_idx_x * 2  # the multiply charges separately
        before = c.stats.issue_cycles
        s.load(idx)
        assert c.stats.issue_cycles - before == 2
        assert c.stats.bank_conflict_extra == 1

    def test_stats_accumulate(self):
        c = ctx_for(grid=1, block=64)
        s = c.shared_array(64, np.float32)
        s.load(c.thread_idx_x)
        s.load(c.thread_idx_x)
        assert c.stats.shared_requests == 4  # 2 warps x 2 accesses
        assert c.stats.shared_bytes == 2 * 64 * 4


@kernel
def async_stage(ctx, x, y, shift):
    """Stage ``x`` through a block tile with ``memcpy_async``, then read
    the element ``shift`` lanes on, with no barrier in between."""
    tile = ctx.shared_array(ctx.block.x, np.float32)
    t = ctx.thread_idx_x
    i = ctx.global_thread_id()
    ctx.memcpy_async(tile, t + shift, x, i)
    ctx.pipeline_commit_and_wait()
    ctx.store(y, i, tile.load((t + ctx.block.x // 2) % ctx.block.x))


def _stage(shift, sanitize=None):
    rt = CudaLite(RTX3080_SYSTEM, sanitize=sanitize)
    x = rt.to_device(np.arange(64, dtype=np.float32))
    y = rt.malloc(64, np.float32)
    rt.launch(async_stage, 1, 64, x, y, shift)
    return y


class TestMemcpyAsync:
    """The shared destination of ``memcpy_async`` is checked like a store."""

    def test_out_of_range_is_an_illegal_address(self):
        with pytest.raises(InvalidAddressError):
            _stage(shift=1)

    def test_memcheck_reports_the_write(self):
        san = Sanitizer("memcheck")
        _stage(shift=1, sanitize=san)
        rules = {f.rule for f in san.report().findings}
        assert rules == {"shared-oob-write"}

    def test_racecheck_sees_the_write(self):
        # lane t reads the element lane t + 32 copied, in the other warp
        san = Sanitizer("racecheck")
        y = _stage(shift=0, sanitize=san)
        rules = {f.rule for f in san.report().findings}
        assert "read-after-write" in rules
        assert np.array_equal(y.to_host(), np.roll(np.arange(64, dtype=np.float32), -32))
