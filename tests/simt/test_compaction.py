"""``while_active`` compaction is invisible.

Dropping the warps whose loop has ended must change no charge, counter,
access-trace record, device byte, carried value or sanitizer finding,
and an aborted loop must abort on the same iteration.  Each case runs
with the compaction threshold patched three ways: never, the default,
and whenever any warp is dead.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.simt.context as context
from repro.arch.presets import TESLA_V100
from repro.common.errors import KernelRuntimeError
from repro.exec.dispatch import ReferenceDispatch
from repro.host.runtime import CudaLite
from repro.jit.dispatch import JitDispatch
from repro.jit.store import ArtifactStore
from repro.sanitize import Sanitizer
from repro.simt.context import ThreadContext
from repro.simt.executor import run_kernel
from repro.simt.kernel import kernel

#: never, the default, and whenever any warp is dead
THRESHOLDS = (float("inf"), context.COMPACT_DEAD_FRACTION, 0.0)
MAX_TRIPS = 12
#: past the logical end of ``x``: loads of ``g + k`` land in its red zone
RED_ZONE = MAX_TRIPS + 4

#: what the kernel body saw during the current launch
_SEEN: dict = {}


@kernel
def churn(ctx, x, y, trips, entry, n, max_iter):
    per_block = ctx.block.x * ctx.block.y
    tib = ctx.thread_idx_y * ctx.block.x + ctx.thread_idx_x
    g = (ctx.block_idx_y * ctx.grid.x + ctx.block_idx_x) * per_block + tib
    t = ctx.load(trips, g)
    go = (ctx.load(entry, g) > 0) & (t > 0)
    tile = ctx.shared_array(per_block, np.float64)

    def body(g, tib, t, k, acc):
        _SEEN["iterations"] += 1
        acc = ctx.masked(acc, acc + ctx.load(x, g + k) * 0.5)
        acc = ctx.masked(acc, acc + ctx.load(y, g))  # uninitialized at first
        hot = ctx.vote_any(k > 2)
        s = ctx.shfl_down(acc, 1)
        acc = ctx.masked(acc, ctx.select(hot, acc + s, acc - s))

        def odd():
            ctx.store(y, g, acc)

        def even():
            tile.store(tib, acc)

        ctx.branch((k % 2) == 1, odd, even)
        ctx.syncthreads(unsafe=True)
        acc = ctx.masked(acc, acc + tile.load((tib + 1) % per_block))
        # geometry, including registers first read inside the loop
        where = ctx.lane_id() + ctx.global_thread_id() * 1e-3
        acc = ctx.masked(acc, acc + where + ctx.block_idx_z + ctx.thread_idx_z)
        k = ctx.masked(k, k + 1)
        return k < t, g, tib, t, k, acc

    # acc enters as float32 and leaves as float64, the dtype of x
    carried = ctx.while_active(
        go, body, g, tib, t, ctx.zeros(np.int64), ctx.zeros(np.float32),
        max_iterations=max_iter,
    )
    _SEEN["carried"] = carried
    ctx.store(y, g, carried[-1])


@dataclass(frozen=True)
class Case:
    grid: tuple[int, int]
    block: tuple[int, int]
    trips: tuple[int, ...]
    entry: tuple[int, ...]
    max_iter: int
    watchdog: int | None

    @property
    def n(self) -> int:
        return len(self.trips)


@st.composite
def cases(draw) -> Case:
    grid = (draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    block = (draw(st.integers(1, 48)), draw(st.integers(1, 3)))
    n = grid[0] * grid[1] * block[0] * block[1]
    # a per-32-thread cap gives whole regions short, long or no loops
    chunks = -(-n // 32)
    caps = draw(st.lists(st.integers(0, MAX_TRIPS), min_size=chunks, max_size=chunks))
    raw = draw(st.lists(st.integers(0, MAX_TRIPS), min_size=n, max_size=n))
    entry = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Case(
        grid=grid,
        block=block,
        trips=tuple(min(r, caps[i // 32]) for i, r in enumerate(raw)),
        entry=tuple(entry),
        max_iter=draw(st.sampled_from([1, 4, 9, 1000])),
        watchdog=draw(st.one_of(st.none(), st.integers(20, 20_000))),
    )


def _bytes(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _launch(case: Case, threshold: float, dispatch, sanitize: bool) -> dict:
    _SEEN.clear()
    _SEEN["iterations"] = 0
    san = Sanitizer("all") if sanitize else None
    rt = CudaLite(TESLA_V100, sanitize=san)
    n = case.n
    x = rt.to_device(np.arange(n + RED_ZONE, dtype=np.float64) * 0.25)
    x.logical_size = n
    y = rt.malloc(n, np.float64)
    trips = rt.to_device(np.asarray(case.trips, dtype=np.int64))
    entry = rt.to_device(np.asarray(case.entry, dtype=np.int64))
    seen: dict = {}
    with mock.patch.object(context, "COMPACT_DEAD_FRACTION", threshold):
        try:
            stats = run_kernel(
                churn, case.grid, case.block,
                (x, y, trips, entry, n, case.max_iter),
                gpu=rt.gpu, sanitizer=san, watchdog_cycles=case.watchdog,
                dispatch=dispatch,
            )
        except KernelRuntimeError as exc:
            seen["error"] = (type(exc).__name__, str(exc))
        else:
            seen["stats"] = {
                f.name: getattr(stats, f.name)
                for f in fields(stats)
                if f.name != "trace"
            }
            seen["trace"] = [
                (r.space, r.is_store, r.itemsize, r.label, r.summary,
                 _bytes(r.window_addrs), _bytes(r.window_mask))
                for r in stats.trace.records
            ]
            seen["carried"] = [_bytes(v.data) for v in _SEEN["carried"]]
    seen["iterations"] = _SEEN["iterations"]
    seen["x"] = _bytes(x.to_host())
    seen["y"] = _bytes(y.to_host())
    if san is not None:
        report = san.report()
        seen["findings"] = (tuple(report.findings), report.suppressed)
    return seen


def _assert_invisible(case: Case, sanitize: bool) -> None:
    store = ArtifactStore("off")  # the jit's later runs replay the first's trace
    for make in (ReferenceDispatch, lambda: JitDispatch(store)):
        never, default, eager = (
            _launch(case, th, make(), sanitize) for th in THRESHOLDS
        )
        assert default == never
        assert eager == never


#: one block of four warps looping 12, 0, 5 and 2 times
DYING = Case(
    grid=(1, 1), block=(128, 1),
    trips=(12,) * 32 + (0,) * 32 + (5,) * 32 + (2,) * 32,
    entry=(1,) * 128, max_iter=1000, watchdog=None,
)


@settings(max_examples=30, deadline=None)
@given(case=cases(), sanitize=st.booleans())
@example(case=DYING, sanitize=True)
@example(case=DYING, sanitize=False)
def test_compaction_is_invisible(case, sanitize):
    _assert_invisible(case, sanitize)


@contextmanager
def _compactions():
    """Record each compaction as (lanes before, loop depth, lanes kept)."""
    seen = []
    compact = ThreadContext._compact

    def counting(self, keep):
        seen.append((self.total_lanes, len(self._mask_stack), keep.size))
        compact(self, keep)

    with mock.patch.object(ThreadContext, "_compact", counting):
        yield seen


@pytest.mark.parametrize(
    "threshold, kept",
    [(THRESHOLDS[0], []), (THRESHOLDS[1], [64, 32]), (THRESHOLDS[2], [96, 64, 32])],
)
def test_dying_case_compacts(threshold, kept):
    with _compactions() as seen:
        _launch(DYING, threshold, ReferenceDispatch(), sanitize=False)
    assert [k for _, _, k in seen] == kept


@kernel
def triangle(ctx, out, trips):
    i = ctx.global_thread_id()
    t = ctx.load(trips, i)

    def outer(i, t, k):
        def inner(i, t, j):
            ctx.store(out, i, ctx.load(out, i) + j)
            j = ctx.masked(j, j + 1)
            return j < t, i, t, j

        i, t, _ = ctx.while_active(k < t, inner, i, t, k)
        k = ctx.masked(k, k + 1)
        return k < t, i, t, k

    ctx.while_active(t > 0, outer, i, t, ctx.zeros(np.int64))


def test_nested_loops_compact_exactly():
    # eight warps looping up to 9, 0, 0, 3, 0, 5, 1 and 2 times
    ragged = np.arange(256) % 3 == 0
    trips = np.maximum(np.repeat([9, 0, 0, 3, 0, 5, 1, 2], 32) - ragged, 0)
    results, compactions = [], []
    for threshold in THRESHOLDS:
        rt = CudaLite(TESLA_V100)
        out = rt.to_device(np.zeros(256, dtype=np.int64))
        dev_trips = rt.to_device(trips)
        with mock.patch.object(context, "COMPACT_DEAD_FRACTION", threshold), \
                _compactions() as seen:
            stats = run_kernel(triangle, 2, 128, (out, dev_trips), gpu=rt.gpu)
        results.append((stats.counters(), _bytes(out.to_host())))
        compactions.append(seen)
    assert results[1] == results[0] and results[2] == results[0]
    never, default, eager = compactions
    assert never == [] and len(eager) > len(default) > 0
    # the outer loop drops three warps at entry, so the inner loop's
    # first compaction starts from the outer one's 160 lanes
    assert next(lanes for lanes, depth, _ in eager if depth == 2) == 160


@kernel
def _stale_arith(ctx, trips, out):
    i = ctx.global_thread_id()
    t = ctx.load(trips, i)

    def body(k):
        k = ctx.masked(k, k + 1)
        return k < t, k  # t is read but not carried

    ctx.while_active(t > 0, body, ctx.zeros(np.int64))


@kernel
def _stale_store(ctx, trips, out):
    i = ctx.global_thread_id()
    t = ctx.load(trips, i)

    def body(k, t):
        k = ctx.masked(k, k + 1)
        ctx.store(out, i, k)  # i is read but not carried
        return k < t, k, t

    ctx.while_active(t > 0, body, ctx.zeros(np.int64), t)


@pytest.mark.parametrize("kdef", [_stale_arith, _stale_store])
def test_uncarried_read_names_while_active(kdef):
    rt = CudaLite(TESLA_V100)
    # one live warp of four: the loop compacts before its first iteration
    trips = rt.to_device(np.array([3] * 32 + [0] * 96, dtype=np.int64))
    out = rt.malloc(128, np.int64)
    with pytest.raises(KernelRuntimeError, match="while_active"):
        run_kernel(kdef, 1, 128, (trips, out), gpu=rt.gpu)
