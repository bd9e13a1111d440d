"""racecheck, synccheck, leakcheck, and the ambient sanitize session."""

import numpy as np
import pytest

from repro.arch.presets import CARINA
from repro.common.errors import KernelRuntimeError
from repro.core.registry import ALL_BENCHMARKS, get_benchmark
from repro.host.runtime import CudaLite
from repro.sanitize import Sanitizer, current_session, sanitize_session
from repro.simt.kernel import kernel
from tests.core.test_suite import FAST_OVERRIDES


@kernel
def race_reverse(ctx, x, y, n):
    """Missing barrier between the store and the cross-warp read."""
    tile = ctx.shared_array(ctx.block.x, np.float32)
    i = ctx.global_thread_id()
    t = ctx.thread_idx_x
    ctx.if_active(i < n, lambda: tile.store(t, ctx.load(x, i)))
    rev = (ctx.block.x - 1) - t
    ctx.if_active(i < n, lambda: ctx.store(y, i, tile.load(rev)))


@kernel
def reverse_with_barrier(ctx, x, y, n):
    """The fixed version: a barrier closes the hazard epoch."""
    tile = ctx.shared_array(ctx.block.x, np.float32)
    i = ctx.global_thread_id()
    t = ctx.thread_idx_x
    ctx.if_active(i < n, lambda: tile.store(t, ctx.load(x, i)))
    ctx.syncthreads()
    rev = (ctx.block.x - 1) - t
    ctx.if_active(i < n, lambda: ctx.store(y, i, tile.load(rev)))


@kernel
def divergent_barrier(ctx, y, n):
    i = ctx.global_thread_id()
    t = ctx.thread_idx_x

    def body():
        ctx.syncthreads(unsafe=True)
        ctx.store(y, i, 1.0)

    ctx.if_active(t < ctx.block.x // 2, body)


def _run_reverse(kdef, tools):
    san = Sanitizer(tools)
    rt = CudaLite(CARINA, sanitize=san)
    x = rt.to_device(np.arange(256, dtype=np.float32))
    y = rt.malloc(256, np.float32)
    rt.launch(kdef, 2, 128, x, y, 256)
    return san, y


class TestRacecheck:
    def test_missing_barrier_reported(self):
        san, _ = _run_reverse(race_reverse, "racecheck")
        findings = san.report().findings
        assert findings
        assert all(f.tool == "racecheck" for f in findings)
        assert any(f.rule == "read-after-write" for f in findings)
        assert all(f.severity == "critical" for f in findings)
        # the conflicting thread's coordinates are named
        assert "conflicts with thread" in findings[0].message

    def test_barrier_clears_epoch(self):
        san, y = _run_reverse(reverse_with_barrier, "racecheck")
        assert san.report().findings == []
        assert (y.to_host() == np.arange(256, dtype=np.float32).reshape(2, 128)[:, ::-1].reshape(-1)).all()

    def test_warp_synchronous_assumption(self):
        """Hazards entirely within one warp are filtered by default."""

        @kernel
        def intra_warp(ctx, y, n):
            tile = ctx.shared_array(32, np.float32)
            t = ctx.thread_idx_x
            tile.store(t, 1.0)
            ctx.store(y, ctx.global_thread_id(), tile.load(31 - t))

        san = Sanitizer("racecheck")
        rt = CudaLite(CARINA, sanitize=san)
        y = rt.malloc(32, np.float32)
        rt.launch(intra_warp, 1, 32, y, 32)
        assert san.report().findings == []

    def test_no_raise_without_sanitizer(self):
        rt = CudaLite(CARINA)
        x = rt.to_device(np.arange(256, dtype=np.float32))
        y = rt.malloc(256, np.float32)
        rt.launch(race_reverse, 2, 128, x, y, 256)  # silent


class TestSynccheck:
    def test_divergent_barrier_reported_with_coords(self):
        san = Sanitizer("synccheck")
        rt = CudaLite(CARINA, sanitize=san)
        y = rt.malloc(256, np.float32)
        rt.launch(divergent_barrier, 2, 128, y, 256)
        findings = san.report().findings
        assert findings
        assert all(f.rule == "divergent-barrier" for f in findings)
        assert all(f.severity == "critical" for f in findings)
        # the first missing thread of the first split warp is t=64
        assert findings[0].thread == (64, 0, 0)

    def test_synccheck_reports_instead_of_raising(self):
        """Even a non-unsafe divergent barrier becomes a finding."""

        @kernel
        def divergent_strict(ctx, y, n):
            t = ctx.thread_idx_x
            ctx.if_active(t < 1, lambda: ctx.syncthreads())

        san = Sanitizer("synccheck")
        rt = CudaLite(CARINA, sanitize=san)
        y = rt.malloc(64, np.float32)
        rt.launch(divergent_strict, 1, 64, y, 64)  # no raise
        assert san.report().findings

    def test_raises_without_sanitizer(self):
        @kernel
        def divergent_strict(ctx, y, n):
            t = ctx.thread_idx_x
            ctx.if_active(t < 1, lambda: ctx.syncthreads())

        rt = CudaLite(CARINA)
        y = rt.malloc(64, np.float32)
        with pytest.raises(KernelRuntimeError):
            rt.launch(divergent_strict, 1, 64, y, 64)

    def test_uniform_barrier_is_clean(self):
        san, _ = _run_reverse(reverse_with_barrier, "synccheck")
        assert san.report().findings == []


class TestLeakcheck:
    def test_close_reports_live_allocations(self):
        san = Sanitizer("leakcheck")
        rt = CudaLite(CARINA, sanitize=san)
        rt.malloc(1024, np.float32)
        rt.close()
        findings = san.report().findings
        assert any(f.rule == "leaked-allocations" for f in findings)

    def test_freed_everything_is_clean(self):
        san = Sanitizer("leakcheck")
        rt = CudaLite(CARINA, sanitize=san)
        a = rt.malloc(1024, np.float32)
        rt.free(a)
        rt.close()
        assert san.report().findings == []

    def test_dynparallel_frees_its_buffers(self):
        # both runtimes: the escape-time image, then Mariani-Silver's
        # image and every recursion level's buffers, freed after use
        san = Sanitizer(("memcheck", "leakcheck"))
        with sanitize_session(sanitizer=san) as session:
            get_benchmark("DynParallel").run(size=128, max_dwell=64)
        assert len(session.runtimes) == 2
        assert san.report().findings == []

    @pytest.mark.parametrize("cls", ALL_BENCHMARKS, ids=lambda c: c.name)
    def test_table1_rows_free_their_buffers(self, cls):
        san = Sanitizer("leakcheck")
        with sanitize_session(sanitizer=san):
            get_benchmark(cls.name).run(**FAST_OVERRIDES.get(cls.name, {}))
        leaks = [f for f in san.report().findings if f.rule == "leaked-allocations"]
        assert leaks == []


class TestSession:
    def test_runtime_inherits_session_sanitizer(self):
        san = Sanitizer("memcheck")
        with sanitize_session(sanitizer=san) as session:
            rt = CudaLite(CARINA)
            assert rt.sanitizer is san
            assert session.runtimes == [rt]
        assert current_session() is None

    def test_session_exit_sweeps_leaks(self):
        san = Sanitizer("leakcheck")
        with sanitize_session(sanitizer=san):
            rt = CudaLite(CARINA)
            rt.malloc(512, np.float32)
        assert any(f.tool == "leakcheck" for f in san.report().findings)

    def test_every_runtime_reports_its_leaks(self):
        # both runtimes hand out the same first device address
        san = Sanitizer("leakcheck")
        with sanitize_session(sanitizer=san):
            for _ in range(2):
                CudaLite(CARINA).malloc(1024, np.float32)
        findings = san.report().findings
        summaries = [f for f in findings if f.rule == "leaked-allocations"]
        leaks = [f for f in findings if f.rule == "leaked-allocation"]
        assert len(summaries) == 2
        assert len(leaks) == 2 and leaks[0].address == leaks[1].address

    def test_runtime_swept_twice_reports_once(self):
        san = Sanitizer("leakcheck")
        rt = CudaLite(CARINA, sanitize=san)
        rt.malloc(1024, np.float32)
        rt.close()
        rt.close()
        assert len(san.report().findings) == 2

    def test_explicit_args_beat_session(self):
        outer = Sanitizer("memcheck")
        inner = Sanitizer("racecheck")
        with sanitize_session(sanitizer=outer):
            rt = CudaLite(CARINA, sanitize=inner)
        assert rt.sanitizer is inner
