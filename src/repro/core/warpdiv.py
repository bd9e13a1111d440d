"""WarpDivRedux (paper §III-A, Fig. 2/3).

Threads that take different branches of an ``if`` within one warp force
the lock-step hardware to execute *both* branch bodies for the whole
warp.  The ``WD`` kernel branches on thread parity, so every warp
diverges; ``noWD`` branches on ``(tid / warpSize) % 2``, which is
warp-uniform, and reaches 100% warp execution efficiency (the paper
reports 85.71% vs 100% from nvprof, and ~1.1x average speedup — the
kernel is memory-bound, so doubled issue work costs little).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.simt.kernel import kernel
from repro.timing.model import estimate_kernel_time

__all__ = ["wd_kernel", "nowd_kernel", "WarpDivRedux"]


@kernel(name="WD")
def wd_kernel(ctx, x, y, z):
    """Divergent: even/odd lanes take different branches (paper Fig. 2)."""
    tid = ctx.global_thread_id()
    ctx.branch(
        (tid % 2) == 0,
        lambda: ctx.store(z, tid, 2 * ctx.load(x, tid) + 3 * ctx.load(y, tid)),
        lambda: ctx.store(z, tid, 3 * ctx.load(x, tid) + 2 * ctx.load(y, tid)),
    )


@kernel(name="noWD")
def nowd_kernel(ctx, x, y, z):
    """Warp-uniform: the branch condition is constant within a warp."""
    tid = ctx.global_thread_id()
    warp = ctx.warp_size
    ctx.branch(
        ((tid // warp) % 2) == 0,
        lambda: ctx.store(z, tid, 2 * ctx.load(x, tid) + 3 * ctx.load(y, tid)),
        lambda: ctx.store(z, tid, 3 * ctx.load(x, tid) + 2 * ctx.load(y, tid)),
    )


def _reference(x: np.ndarray, y: np.ndarray, swap_parity: bool) -> np.ndarray:
    tid = np.arange(x.shape[0])
    cond = (tid % 2 == 0) if not swap_parity else ((tid // 32) % 2 == 0)
    return np.where(cond, 2 * x + 3 * y, 3 * x + 2 * y).astype(np.float32)


class WarpDivRedux(Microbenchmark):
    """Remove warp divergence by branching at warp granularity."""

    name = "WarpDivRedux"
    category = "parallelism"
    pattern = "Threads enter different branches at control flow statements"
    technique = "Change the algorithm: take the warp size as the step"
    paper_speedup = "1.1 (average)"
    programmability = 3
    figure = "Fig. 3: warp divergence kernel time"
    sweep_values = tuple(1 << k for k in range(16, 23))
    series = (("WD", "baseline"), ("noWD", "optimized"))

    def run(self, n: int = 1 << 20, block: int = 256, **_: Any) -> BenchResult:
        rt = CudaLite(self.system)
        rng = make_rng(label="warpdiv")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        x = rt.to_device(hx)
        y = rt.to_device(hy)
        z1 = rt.malloc(n)
        z2 = rt.malloc(n)
        grid = -(-n // block)

        s_wd = rt.launch(wd_kernel, grid, block, x, y, z1)
        s_nowd = rt.launch(nowd_kernel, grid, block, x, y, z2)
        rt.synchronize()

        ok = np.allclose(z1.to_host(), _reference(hx, hy, False)) and np.allclose(
            z2.to_host(), _reference(hx, hy, True)
        )
        for buf in (x, y, z1, z2):
            rt.free(buf)
        gpu = self.system.gpu
        t_wd = estimate_kernel_time(s_wd, gpu).exec_s
        t_nowd = estimate_kernel_time(s_nowd, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="WD",
            optimized_name="noWD",
            baseline_time=t_wd,
            optimized_time=t_nowd,
            verified=ok,
            params={"n": n, "block": block},
            metrics={
                "wd_warp_execution_efficiency": s_wd.warp_execution_efficiency,
                "nowd_warp_execution_efficiency": s_nowd.warp_execution_efficiency,
                "wd_branch_efficiency": s_wd.branch_efficiency,
                "nowd_branch_efficiency": s_nowd.branch_efficiency,
            },
        )
