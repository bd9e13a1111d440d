"""Kernel launch validation and execution.

:func:`run_kernel` is the functional heart of the simulator: it
validates the execution configuration against the architecture limits
(as the CUDA runtime would at launch), builds a
:class:`~repro.simt.context.ThreadContext`, runs the kernel body once
in vectorized lock-step over the whole grid, and returns the collected
:class:`~repro.simt.stats.KernelStats`.

Timing is *not* computed here — the stats feed
:func:`repro.timing.model.estimate_kernel_time`, and device-level
scheduling (streams, concurrency, transfers) happens in
:mod:`repro.host`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.arch.spec import GPUSpec
from repro.common.errors import KernelRuntimeError, LaunchConfigError
from repro.simt.context import ThreadContext
from repro.simt.dim3 import Dim3
from repro.simt.kernel import KernelDef
from repro.simt.stats import KernelStats

__all__ = ["validate_launch", "run_kernel", "MAX_SIM_THREADS"]

#: Guard rail: grids above this many threads would allocate multi-GiB
#: lane vectors; benchmarks use scaled sizes plus analytic extrapolation.
MAX_SIM_THREADS = 1 << 26


def validate_launch(
    gpu: GPUSpec,
    grid: Dim3,
    block: Dim3,
    *,
    shared_mem_bytes: int = 0,
) -> None:
    """Reject configurations the CUDA runtime would refuse."""
    if block.size > gpu.max_threads_per_block:
        raise LaunchConfigError(
            f"block of {block.size} threads exceeds the {gpu.name} limit of "
            f"{gpu.max_threads_per_block}"
        )
    for axis, limit, got in zip(
        "xyz", gpu.max_block_dim, (block.x, block.y, block.z)
    ):
        if got > limit:
            raise LaunchConfigError(
                f"blockDim.{axis}={got} exceeds limit {limit} on {gpu.name}"
            )
    for axis, limit, got in zip("xyz", gpu.max_grid_dim, (grid.x, grid.y, grid.z)):
        if got > limit:
            raise LaunchConfigError(
                f"gridDim.{axis}={got} exceeds limit {limit} on {gpu.name}"
            )
    if shared_mem_bytes > gpu.shared_mem_per_block:
        raise LaunchConfigError(
            f"{shared_mem_bytes} bytes of shared memory exceeds the per-block "
            f"limit of {gpu.shared_mem_per_block} on {gpu.name}"
        )


#: CUDA limits device-side recursion depth (default 24 nesting levels).
MAX_NESTING_DEPTH = 24


def run_kernel(
    kdef: KernelDef,
    grid: Dim3 | int | tuple[int, ...],
    block: Dim3 | int | tuple[int, ...],
    args: Sequence[Any] = (),
    *,
    gpu: GPUSpec,
    name: str | None = None,
    max_sim_threads: int = MAX_SIM_THREADS,
    sanitizer=None,
    watchdog_cycles: float | None = None,
    hub=None,
    dispatch=None,
    _depth: int = 0,
) -> KernelStats:
    """Execute one kernel launch and return its statistics.

    The launch is functional: all side effects land in the device
    arrays passed through ``args``.  Device-side child launches
    (dynamic parallelism) run after the parent in submission order and
    their statistics merge into the returned :class:`KernelStats`.

    ``sanitizer`` attaches a :class:`~repro.sanitize.core.Sanitizer` to
    the launch; ``watchdog_cycles`` bounds the kernel's issue cycles
    (:class:`~repro.common.errors.WatchdogTimeout` past the budget);
    ``hub`` (an :class:`~repro.prof.activity.ActivityHub`) receives a
    driver-phase ``launch`` record per launch, child launches included.
    """
    if _depth > MAX_NESTING_DEPTH:
        raise LaunchConfigError(
            f"dynamic-parallelism nesting exceeded {MAX_NESTING_DEPTH} levels"
        )
    grid = Dim3.of(grid)
    block = Dim3.of(block)
    validate_launch(gpu, grid, block)
    total = grid.size * block.size
    if total > max_sim_threads:
        raise LaunchConfigError(
            f"grid of {total} threads exceeds the simulation guard rail of "
            f"{max_sim_threads}; scale the workload or raise max_sim_threads"
        )
    if total == 0:
        raise LaunchConfigError("empty launch")

    ctx = ThreadContext(
        gpu,
        grid,
        block,
        name=name or kdef.name,
        sanitizer=sanitizer,
        watchdog_cycles=watchdog_cycles,
        dispatch=dispatch,
    )
    # Launch bracketing for stateful dispatchers (the trace-JIT tier
    # records or replays per launch); plain dispatchers have no hooks
    # and pay nothing.
    begin_launch = getattr(ctx.dispatch, "begin_launch", None)
    if begin_launch is not None:
        begin_launch(kdef, grid, block, gpu, tuple(args))
    completed = False
    try:
        try:
            # IEEE semantics without warnings (x/0 = inf, sqrt(-1) = nan),
            # set once for the whole body rather than per instruction
            with np.errstate(all="ignore"):
                kdef(ctx, *args)
        except RecursionError as exc:  # pragma: no cover - defensive
            raise KernelRuntimeError(
                f"kernel {kdef.name} recursed too deep"
            ) from exc
        if ctx._mask_stack:
            raise KernelRuntimeError(
                f"kernel {kdef.name} left {len(ctx._mask_stack)} masks pushed "
                "(a control-flow helper was aborted mid-iteration)"
            )
        completed = True
    finally:
        if begin_launch is not None:
            ctx.dispatch.end_launch(completed)
    stats = ctx.stats
    stats.shared_mem_per_block = ctx.shared_bytes_per_block
    stats.registers_per_thread = kdef.registers
    stats.managed_touched = ctx.managed_touched
    validate_launch(gpu, grid, block, shared_mem_bytes=stats.shared_mem_per_block)

    if hub is not None and hub.wants("launch"):
        hub.emit(
            "launch",
            stats.name,
            track="driver" if _depth == 0 else "device launches",
            grid=[grid.x, grid.y, grid.z],
            block=[block.x, block.y, block.z],
            threads=total,
            depth=_depth,
        )

    # dynamic parallelism: run children after the parent, fold stats in
    for child_kdef, cgrid, cblock, cargs in ctx.pending_children:
        child = run_kernel(
            child_kdef,
            cgrid,
            cblock,
            cargs,
            gpu=gpu,
            max_sim_threads=max_sim_threads,
            sanitizer=sanitizer,
            watchdog_cycles=watchdog_cycles,
            hub=hub,
            dispatch=ctx.dispatch,
            _depth=_depth + 1,
        )
        stats.merge_child(child)
        for addr, (r, w) in child.managed_touched.items():
            pr, pw = stats.managed_touched.setdefault(addr, (set(), set()))
            pr.update(r)
            pw.update(w)
    return stats
