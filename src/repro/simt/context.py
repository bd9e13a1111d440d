"""The lock-step SIMT thread context.

A :class:`ThreadContext` is what a kernel function receives as its first
argument.  It plays the role of CUDA's implicit execution state —
``threadIdx``/``blockIdx``/``blockDim``/``gridDim``, the active mask,
shared memory, ``__syncthreads`` and the warp intrinsics — for *every
thread of the grid at once*: all per-thread values are flat NumPy
arrays (wrapped in :class:`~repro.simt.lanevec.LaneVec`), and control
flow is expressed with explicit mask-manipulating constructs
(:meth:`branch`, :meth:`while_active`, :meth:`strided_range`) that
charge divergent warps for every path they execute, exactly as the
SIMT lock-step hardware model does (paper §III-A).

Lane layout: blocks are laid out consecutively, each padded to a whole
number of warps, so a warp never spans two blocks — matching how the
hardware carves blocks into warps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arch.spec import GPUSpec
from repro.common.errors import KernelRuntimeError, WatchdogTimeout
from repro.mem.trace import AccessTrace
from repro.simt.dim3 import Dim3
from repro.simt.lanevec import LaneVec
from repro.simt.memory_ops import _CARRY_HINT, MemoryOpsMixin, full_grid
from repro.simt.stats import KernelStats

__all__ = ["ThreadContext", "COMPACT_DEAD_FRACTION"]

#: :meth:`ThreadContext.while_active` drops the warps with no live lane
#: once they make up at least this fraction of the loop's current warps
#: (0: whenever any warp is dead; above 1: never).
COMPACT_DEAD_FRACTION = 0.5

#: The per-lane layout a compacted :meth:`ThreadContext.while_active`
#: gathers to its kept warps.  ``_lane_map`` holds each current lane's
#: place in the launch's grid (None while every lane is present).
_LAYOUT = (
    "total_lanes",
    "_base_mask",
    "_lane_in_block",
    "_block_of_lane",
    "_geom_cache",
    "_lane_map",
)


class ThreadContext(MemoryOpsMixin):
    """Vectorized execution state for one kernel launch."""

    def __init__(
        self,
        gpu: GPUSpec,
        grid: Dim3,
        block: Dim3,
        *,
        name: str = "kernel",
        sanitizer=None,
        watchdog_cycles: float | None = None,
        dispatch=None,
    ) -> None:
        self.gpu = gpu
        #: optional :class:`~repro.sanitize.core.Sanitizer` observing
        #: this launch's memory accesses and barriers
        self.sanitizer = sanitizer
        if dispatch is None:
            from repro.exec.dispatch import make_dispatcher

            dispatch = make_dispatcher()
        #: memory-analysis backend (:mod:`repro.exec.dispatch`)
        self.dispatch = dispatch
        #: issue-cycle budget; exceeding it raises :class:`WatchdogTimeout`
        self.watchdog_cycles = watchdog_cycles
        self.grid = grid
        self.block = block
        self.warp_size = gpu.warp_size

        bs = block.size
        self.padded_block_size = -(-bs // self.warp_size) * self.warp_size
        self.n_blocks = grid.size
        self.total_lanes = self.n_blocks * self.padded_block_size

        lane = np.arange(self.total_lanes, dtype=np.int64)
        self._lane_in_block = lane % self.padded_block_size
        self._block_of_lane = lane // self.padded_block_size
        base_mask = self._lane_in_block < bs

        self.stats = KernelStats(
            name=name,
            grid=grid,
            block=block,
            threads=self.n_blocks * bs,
            warps=self.total_lanes // self.warp_size,
            warp_size=self.warp_size,
            trace=AccessTrace.for_grid(self.total_lanes, self.warp_size),
        )

        self._mask_stack: list[np.ndarray] = []
        self._mask = base_mask
        self._base_mask = base_mask
        self._refresh_active()

        self._geom_cache: dict[str, np.ndarray] = {}
        self._lane_map: np.ndarray | None = None
        #: the launch's own layout, which memory and barrier operations
        #: run over inside a compacted loop
        self._grid_layout = self._layout()
        self._shared_arrays: list = []
        self.shared_bytes_per_block = 0
        #: device-side child launches (dynamic parallelism), executed by
        #: the executor after the parent kernel returns
        self.pending_children: list[tuple] = []
        #: pages of managed allocations touched by this launch:
        #: allocation base address -> (read page set, written page set)
        self.managed_touched: dict[int, tuple[set[int], set[int]]] = {}

    # ------------------------------------------------------------------
    # Masks and charging
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """The current activity mask (do not mutate)."""
        return self._mask

    @property
    def active_lanes(self) -> int:
        return self._active_lanes

    @property
    def active_warps(self) -> int:
        return self._active_warps

    def _refresh_active(self) -> None:
        m = self._mask
        self._active_lanes = int(m.sum())
        if self._active_lanes:
            self._active_warps = int(
                m.reshape(-1, self.warp_size).any(axis=1).sum()
            )
        else:
            self._active_warps = 0

    def _layout(self) -> tuple:
        return tuple(getattr(self, name) for name in _LAYOUT)

    def _set_layout(self, layout: tuple) -> None:
        for name, value in zip(_LAYOUT, layout):
            setattr(self, name, value)

    def _compact(self, keep: np.ndarray) -> None:
        """Gather the per-lane layout to the lanes ``keep`` (whole warps)."""
        self.total_lanes = keep.size
        self._base_mask = self._base_mask[keep]
        self._lane_in_block = self._lane_in_block[keep]
        self._block_of_lane = self._block_of_lane[keep]
        self._geom_cache = {k: v[keep] for k, v in self._geom_cache.items()}
        self._lane_map = keep if self._lane_map is None else self._lane_map[keep]

    def push_mask(self, mask: np.ndarray) -> None:
        self._mask_stack.append(self._mask)
        self._mask = mask
        self._refresh_active()

    def pop_mask(self) -> None:
        if not self._mask_stack:
            raise KernelRuntimeError("mask stack underflow (unbalanced pop)")
        self._mask = self._mask_stack.pop()
        self._refresh_active()

    def charge(self, op_class: str, count: int = 1) -> None:
        """Charge ``count`` warp-wide instructions of ``op_class``.

        Issue cycles scale with the number of *warps* that have any
        active lane — a half-empty warp occupies the pipeline exactly
        like a full one, which is the root cause of divergence cost.
        """
        st = self.stats
        st.issue_cycles += self.gpu.op_cycles(op_class) * self._active_warps * count
        st.warp_instructions += self._active_warps * count
        st.thread_instructions += self._active_lanes * count
        wd = self.watchdog_cycles
        if wd is not None and st.issue_cycles > wd:
            raise WatchdogTimeout(
                f"kernel {st.name!r} exceeded the watchdog budget of "
                f"{wd:g} issue cycles (at {st.issue_cycles:g}); the display "
                "watchdog (WDDM TDR analog) killed it"
            )

    # ------------------------------------------------------------------
    # Geometry (CUDA special registers; reads are free)
    # ------------------------------------------------------------------
    def _geom(self, key: str) -> np.ndarray:
        cached = self._geom_cache.get(key)
        if cached is not None:
            return cached
        b = self.block
        g = self.grid
        if key == "tx":
            out = self._lane_in_block % b.x
        elif key == "ty":
            out = (self._lane_in_block // b.x) % b.y
        elif key == "tz":
            out = self._lane_in_block // (b.x * b.y)
        elif key == "bx":
            out = self._block_of_lane % g.x
        elif key == "by":
            out = (self._block_of_lane // g.x) % g.y
        elif key == "bz":
            out = self._block_of_lane // (g.x * g.y)
        else:  # pragma: no cover - internal
            raise KeyError(key)
        self._geom_cache[key] = out
        return out

    def _lv(self, data: np.ndarray) -> LaneVec:
        return LaneVec(self, data)

    @property
    def thread_idx_x(self) -> LaneVec:
        return self._lv(self._geom("tx"))

    @property
    def thread_idx_y(self) -> LaneVec:
        return self._lv(self._geom("ty"))

    @property
    def thread_idx_z(self) -> LaneVec:
        return self._lv(self._geom("tz"))

    @property
    def block_idx_x(self) -> LaneVec:
        return self._lv(self._geom("bx"))

    @property
    def block_idx_y(self) -> LaneVec:
        return self._lv(self._geom("by"))

    @property
    def block_idx_z(self) -> LaneVec:
        return self._lv(self._geom("bz"))

    @property
    def block_dim(self) -> Dim3:
        return self.block

    @property
    def grid_dim(self) -> Dim3:
        return self.grid

    def global_thread_id(self) -> LaneVec:
        """``blockIdx.x * blockDim.x + threadIdx.x`` for 1-D launches."""
        return self._lv(self._geom("bx") * self.block.x + self._geom("tx"))

    def total_threads(self) -> int:
        """``gridDim.x * blockDim.x`` (1-D launches)."""
        return self.grid.x * self.block.x

    def lane_id(self) -> LaneVec:
        """Lane index within the warp (``threadIdx.x % warpSize``)."""
        return self._lv(np.arange(self.total_lanes, dtype=np.int64) % self.warp_size)

    def const(self, value: float | int, dtype: np.dtype | type = np.float32) -> LaneVec:
        """Broadcast a scalar into a lane vector (free, like an immediate)."""
        return self._lv(np.full(self.total_lanes, value, dtype=np.dtype(dtype)))

    def zeros(self, dtype: np.dtype | type = np.float32) -> LaneVec:
        return self._lv(np.zeros(self.total_lanes, dtype=np.dtype(dtype)))

    def as_lanevec(self, value) -> LaneVec:
        if isinstance(value, LaneVec):
            return value
        if isinstance(value, np.ndarray):
            if value.shape != (self.total_lanes,):
                raise KernelRuntimeError(
                    f"array of shape {value.shape} is not a lane vector "
                    f"({self.total_lanes} lanes)"
                )
            return self._lv(value)
        return self.const(value, dtype=np.result_type(value))

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------
    def branch(
        self,
        cond: LaneVec,
        then_fn: Callable[[], None],
        else_fn: Callable[[], None] | None = None,
    ) -> None:
        """Execute a data-dependent if/else with SIMT divergence semantics.

        Both sides run under complementary lane masks; a warp whose
        active lanes disagree on ``cond`` is *divergent* and is charged
        for both paths (its lanes are live in both sub-masks).
        """
        c = np.asarray(cond.data, dtype=bool)
        m = self._mask
        mw = m.reshape(-1, self.warp_size)
        cw = c.reshape(-1, self.warp_size)
        has_t = (mw & cw).any(axis=1)
        has_f = (mw & ~cw).any(axis=1)
        self.stats.branches += int((has_t | has_f).sum())
        self.stats.divergent_branches += int((has_t & has_f).sum())
        self.charge("branch")

        self.push_mask(m & c)
        try:
            if self._active_lanes:
                then_fn()
        finally:
            self.pop_mask()
        if else_fn is not None:
            self.push_mask(m & ~c)
            try:
                if self._active_lanes:
                    else_fn()
            finally:
                self.pop_mask()

    def if_active(self, cond: LaneVec, body: Callable[[], None]) -> None:
        """Sugar for :meth:`branch` with no else side."""
        self.branch(cond, body, None)

    def masked(self, old: LaneVec, new: LaneVec) -> LaneVec:
        """Predicated register update: active lanes take ``new``, inactive
        lanes keep ``old``.

        Plain Python rebinding (``v = v + 1``) recomputes *every* lane —
        the lock-step interpreter's arithmetic is maskless, like the
        hardware datapath.  State carried across :meth:`while_active`
        iterations or :meth:`branch` bodies must be committed through
        this method, which models the predicated register write-back.
        Free of charge: predication rides on the producing instruction.
        """
        return self._lv(np.where(self._mask, new.data, old.data))

    def select(self, cond: LaneVec, a: LaneVec, b: LaneVec) -> LaneVec:
        """Predicated select (``cond ? a : b``) — one instruction, no
        divergence; models what the compiler emits for small branches."""
        self.charge("int")
        return self._lv(np.where(np.asarray(cond.data, dtype=bool), a.data, b.data))

    def while_active(
        self,
        cond: LaneVec,
        body: Callable[..., tuple],
        *carried: LaneVec,
        max_iterations: int = 1_000_000,
    ) -> tuple[LaneVec, ...]:
        """Run ``body`` while any lane's condition holds (lock-step loop).

        ``body(*carried)`` returns ``(next_cond, *carried)``: the next
        iteration's continue-condition and the new loop-carried lane
        vectors.  Every lane vector the body reads must be carried (a
        loop invariant is returned unchanged); the final carried vectors
        are returned.  A warp keeps issuing until its *slowest* lane
        finishes — the divergence behaviour that makes e.g. Mandelbrot
        dwell loops expensive (paper §III-B).

        A warp with no live lane issues nothing, so once such warps make
        up :data:`COMPACT_DEAD_FRACTION` of the loop's lanes they are
        dropped whole and the body runs over the kept warps only.  Every
        charge and counter is unchanged, and memory and barrier
        operations still run over the full grid.  In a dropped warp's
        lanes a carried value keeps the value it had when the warp was
        dropped, so only state committed through :meth:`masked` is
        guaranteed to match a loop that recomputes every lane.
        """
        ws = self.warp_size
        vals = [self._loop_lanes(v) for v in carried]
        entry = self._layout()
        # the carried values at entry size, and each current lane's entry
        # lane; both None until the first compaction
        out = sel = None
        m = np.asarray(cond.data, dtype=bool) & self._mask
        self._mask_stack.append(self._mask)
        iterations = 0
        try:
            while True:
                live = m.reshape(-1, ws).any(axis=1)
                n_live = int(np.count_nonzero(live))
                if not n_live:
                    break
                dead = live.size - n_live
                if dead and dead >= COMPACT_DEAD_FRACTION * live.size:
                    if out is None:
                        out = [v.copy() for v in vals]
                    else:
                        _put(out, sel, vals)
                    keep = (
                        np.flatnonzero(live)[:, None] * ws + np.arange(ws)
                    ).reshape(-1)
                    sel = keep if sel is None else sel[keep]
                    vals = [v[keep] for v in vals]
                    m = m[keep]
                    self._compact(keep)
                self._mask = m
                self._active_warps = n_live
                self._active_lanes = int(np.count_nonzero(m))
                if iterations >= max_iterations:
                    raise KernelRuntimeError(
                        f"while_active exceeded {max_iterations} iterations"
                    )
                try:
                    result = body(*(self._lv(v) for v in vals))
                except ValueError as exc:
                    if sel is None:
                        raise
                    raise KernelRuntimeError(
                        f"while_active body failed on its compacted lanes "
                        f"({exc}); {_CARRY_HINT}"
                    ) from exc
                if not isinstance(result, tuple) or len(result) != len(vals) + 1:
                    raise KernelRuntimeError(
                        f"while_active body must return (next_cond, *carried) "
                        f"with {len(vals)} carried value(s)"
                    )
                self.charge("branch")
                iterations += 1
                m = self._mask & self._loop_lanes(result[0]).astype(bool, copy=False)
                vals = [self._loop_lanes(v) for v in result[1:]]
        finally:
            self._set_layout(entry)
            self.pop_mask()
        if out is not None:
            _put(out, sel, vals)
            vals = out
        return tuple(self._lv(v) for v in vals)

    def _loop_lanes(self, value) -> np.ndarray:
        """The lane data of a ``while_active`` value, checked against the
        current lane set."""
        data = self.as_lanevec(value).data
        if data.shape != (self.total_lanes,):
            raise KernelRuntimeError(
                f"while_active value has {data.size} lanes, the loop "
                f"{self.total_lanes}; {_CARRY_HINT}"
            )
        return data

    def strided_range(self, start, stop, step):
        """Per-lane counted loop: ``for (j = start; j < stop; j += step)``.

        ``start``/``stop``/``step`` may be lane vectors or scalars.
        Yields the loop variable as a lane vector with the activity mask
        narrowed to lanes still inside their bounds, so trailing
        iterations of uneven trip counts are charged only to the warps
        that still have live lanes.  This is exactly the shape of the
        block/cyclic AXPY loops in paper Fig. 8.
        """
        start_d = start.data if isinstance(start, LaneVec) else start
        stop_d = stop.data if isinstance(stop, LaneVec) else stop
        step_d = step.data if isinstance(step, LaneVec) else step
        j = np.broadcast_to(
            np.asarray(start_d, dtype=np.int64), (self.total_lanes,)
        ).copy()
        base = self._mask
        while True:
            live = base & (j < stop_d)
            self.charge("cmp")
            self.charge("branch")
            if not live.any():
                break
            self.push_mask(live)
            try:
                yield self._lv(j.copy())
            finally:
                self.pop_mask()
            # the loop-variable increment is an integer add per iteration
            self.charge("int")
            j = j + step_d

    def range_uniform(self, n: int):
        """Host-uniform counted loop (same trip count for every lane).

        Yields plain Python ints, charging one compare+branch per
        iteration like the hardware's uniform loop overhead.
        """
        for i in range(int(n)):
            self.charge("cmp")
            self.charge("branch")
            yield i

    # ------------------------------------------------------------------
    # Math intrinsics (SFU)
    # ------------------------------------------------------------------
    def _unary_math(self, v: LaneVec, fn, cls: str = "special") -> LaneVec:
        self.charge(cls)
        return self._lv(fn(v.data))

    def sqrt(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, np.sqrt)

    def rsqrt(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, lambda d: 1.0 / np.sqrt(d))

    def exp(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, np.exp)

    def log(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, np.log)

    def sin(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, np.sin)

    def cos(self, v: LaneVec) -> LaneVec:
        return self._unary_math(v, np.cos)

    def fma(self, a: LaneVec, b, c) -> LaneVec:
        """Fused multiply-add: one FP instruction."""
        b_d = b.data if isinstance(b, LaneVec) else b
        c_d = c.data if isinstance(c, LaneVec) else c
        out = a.data * b_d + c_d
        self.charge("fp64" if out.dtype.itemsize == 8 and out.dtype.kind == "f" else "fp32")
        return self._lv(out)

    def min(self, a: LaneVec, b) -> LaneVec:
        b_d = b.data if isinstance(b, LaneVec) else b
        self.charge("int" if a.dtype.kind != "f" else "fp32")
        return self._lv(np.minimum(a.data, b_d))

    def max(self, a: LaneVec, b) -> LaneVec:
        b_d = b.data if isinstance(b, LaneVec) else b
        self.charge("int" if a.dtype.kind != "f" else "fp32")
        return self._lv(np.maximum(a.data, b_d))

    # ------------------------------------------------------------------
    # Warp intrinsics
    # ------------------------------------------------------------------
    def _shfl(self, value: LaneVec, src_lane_2d: np.ndarray) -> LaneVec:
        v2d = value.data.reshape(-1, self.warp_size)
        out = np.take_along_axis(v2d, src_lane_2d, axis=1).reshape(-1)
        self.charge("shfl")
        self.stats.shuffles += self._active_warps
        return self._lv(out)

    def _lane_grid(self) -> np.ndarray:
        n_warps = self.total_lanes // self.warp_size
        return np.broadcast_to(
            np.arange(self.warp_size, dtype=np.int64), (n_warps, self.warp_size)
        )

    def shfl_down(self, value: LaneVec, delta: int, width: int | None = None) -> LaneVec:
        """``__shfl_down_sync``: lane *i* receives lane *i + delta*'s value.

        Lanes whose source falls outside the (sub-)warp keep their own
        value, matching CUDA's behaviour for out-of-range sources.
        """
        w = self.warp_size if width is None else int(width)
        lanes = self._lane_grid()
        src = lanes + delta
        oob = (src % w) < (lanes % w)  # crossed a width-segment boundary
        src = np.where(oob | (src >= self.warp_size), lanes, src)
        return self._shfl(value, src)

    def shfl_up(self, value: LaneVec, delta: int, width: int | None = None) -> LaneVec:
        w = self.warp_size if width is None else int(width)
        lanes = self._lane_grid()
        src = lanes - delta
        oob = (src % w) > (lanes % w)
        src = np.where(oob | (src < 0), lanes, src)
        return self._shfl(value, src)

    def shfl_xor(self, value: LaneVec, lane_mask: int) -> LaneVec:
        """``__shfl_xor_sync``: butterfly exchange pattern."""
        lanes = self._lane_grid()
        src = lanes ^ lane_mask
        src = np.where(src < self.warp_size, src, lanes)
        return self._shfl(value, src)

    def shfl_idx(self, value: LaneVec, src_lane: int) -> LaneVec:
        """``__shfl_sync``: broadcast from a fixed lane."""
        lanes = self._lane_grid()
        src = np.full_like(lanes, int(src_lane) % self.warp_size)
        return self._shfl(value, src)

    # -- warp votes ------------------------------------------------------
    def _warp_vote(self, pred: LaneVec, reducer) -> np.ndarray:
        """Reduce active lanes' predicate per warp, broadcast to lanes."""
        p = np.asarray(pred.data, dtype=bool) & self._mask
        per_warp = reducer(p.reshape(-1, self.warp_size), axis=1)
        self.charge("shfl")
        return per_warp

    def vote_any(self, pred: LaneVec) -> LaneVec:
        """``__any_sync``: true on every lane of a warp with any active
        lane predicating true."""
        per_warp = self._warp_vote(pred, np.any)
        return self._lv(np.repeat(per_warp, self.warp_size))

    def vote_all(self, pred: LaneVec) -> LaneVec:
        """``__all_sync``: true where all *active* lanes predicate true."""
        p = np.asarray(pred.data, dtype=bool)
        m2d = self._mask.reshape(-1, self.warp_size)
        ok = (p.reshape(-1, self.warp_size) | ~m2d).all(axis=1)
        self.charge("shfl")
        return self._lv(np.repeat(ok, self.warp_size))

    def ballot(self, pred: LaneVec) -> LaneVec:
        """``__ballot_sync``: each lane receives the warp's 32-bit mask of
        active lanes whose predicate is true."""
        p = (np.asarray(pred.data, dtype=bool) & self._mask).reshape(
            -1, self.warp_size
        )
        weights = (1 << np.arange(self.warp_size, dtype=np.int64))
        masks = (p * weights).sum(axis=1)
        self.charge("shfl")
        return self._lv(np.repeat(masks, self.warp_size))

    def popc(self, value: LaneVec) -> LaneVec:
        """``__popc``: per-lane population count (for ballot masks)."""
        self.charge("int")
        # SWAR popcount, portable across NumPy versions
        x = value.data.astype(np.uint64)
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
        return self._lv(x.astype(np.int64))

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    @full_grid
    def syncthreads(self, *, unsafe: bool = False) -> None:
        """``__syncthreads()``.

        Functionally a no-op under lock-step execution (every statement
        already completes grid-wide before the next); for timing it
        charges a small pipeline-drain cost and counts the barrier.
        Calling it under divergence is undefined behaviour in CUDA, so
        the simulator raises unless ``unsafe=True``; with synccheck
        enabled the divergence is reported as a finding instead and
        execution continues (compute-sanitizer semantics).
        """
        san = self.sanitizer
        if not np.array_equal(self._mask, self._base_mask):
            if san is not None and san.enabled("synccheck"):
                san.barrier_divergence(self)
            elif not unsafe:
                raise KernelRuntimeError(
                    "__syncthreads() reached under divergence (some threads of "
                    "a block would not arrive); pass unsafe=True to mimic "
                    "hardware deadlock-free-by-luck behaviour"
                )
        self.stats.barriers += 1
        if san is not None and san.enabled("racecheck"):
            san.on_barrier(self)
        # ~2 cycles of issue per warp for the bar.sync handshake
        self.charge("branch", count=2)

    def syncwarp(self) -> None:
        """``__syncwarp()``: free under lock-step; counted for fidelity."""
        self.charge("branch")

    # ------------------------------------------------------------------
    # Shared memory and asynchronous copies
    # ------------------------------------------------------------------
    def shared_array(self, shape, dtype=np.float32):
        """Declare a ``__shared__`` array (one instance per block)."""
        from repro.simt.shared import SharedArray

        return SharedArray(self, shape, dtype)

    @full_grid
    def memcpy_async(self, dst_shared, dst_index, src_arr, src_index) -> None:
        """``cooperative_groups::memcpy_async`` / Ampere ``cp.async``.

        Copies global -> shared without staging through registers: the
        functional effect equals ``dst.store(dst_index, load(src))``,
        but the charge is only the global transactions — the register
        round-trip and the separate shared store are bypassed
        (paper §IV-D).  Raises on architectures without hardware
        support, where the real API would fall back to a regular copy.
        """
        from repro.common.errors import KernelRuntimeError

        if not self.gpu.supports_memcpy_async:
            raise KernelRuntimeError(
                f"{self.gpu.name} has no hardware memcpy_async (cp.async); "
                "use load+store or pick an Ampere-class GPU"
            )
        idx_safe, mask = self._global_access(
            src_arr, src_index, space="global", is_store=False, label="cp.async"
        )
        # The destination is range-checked and shown to the sanitizer as
        # a shared store is, but charges no bank pass (the DMA path skips
        # the LSU).
        gflat, dst_mask = dst_shared._account(
            dst_shared._flatten_index(dst_index), is_store=True, charge=False
        )
        mask = mask & dst_mask
        if not mask.any():
            return
        values = src_arr.view.reshape(-1)[idx_safe]
        dst_shared._data[gflat[mask]] = values[mask].astype(dst_shared.dtype, copy=False)
        st = self.stats
        st.async_copies += self._active_warps
        st.async_copy_bytes += int(mask.sum()) * src_arr.itemsize

    def pipeline_commit_and_wait(self) -> None:
        """``pipeline::commit`` + ``wait``; a cheap synchronization."""
        self.charge("branch")

    # ------------------------------------------------------------------
    # Dynamic parallelism
    # ------------------------------------------------------------------
    def launch_child(self, kdef, grid, block, *args) -> None:
        """Device-side kernel launch (``kernel<<<g, b>>>`` from a kernel).

        The simulator executes children after the parent returns — the
        fork-join approximation of CUDA's "children complete before the
        parent's implicit sync".  Each child's statistics merge into
        this launch (so one :class:`KernelStats` describes the whole
        nested tree) and each launch charges the device-side launch
        overhead in the timing model.
        """
        from repro.common.errors import KernelRuntimeError
        from repro.simt.dim3 import Dim3

        if not self.gpu.supports_dynamic_parallelism:
            raise KernelRuntimeError(
                f"{self.gpu.name} does not support dynamic parallelism"
            )
        self.charge("branch")  # the launch instruction itself
        self.pending_children.append((kdef, Dim3.of(grid), Dim3.of(block), args))


def _put(out: list, sel: np.ndarray, vals: list) -> None:
    """Scatter compacted carried values back to their entry lanes."""
    for i, v in enumerate(vals):
        if out[i].dtype != v.dtype:
            out[i] = out[i].astype(v.dtype)
        out[i][sel] = v
