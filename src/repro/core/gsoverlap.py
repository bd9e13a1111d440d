"""GSOverlap (paper §IV-D).

Copying global memory into shared memory classically stages through
registers: a global load writes a register, a shared store reads it.
Ampere's ``memcpy_async`` (``cp.async``) moves the data directly,
skipping the register round trip and letting the copy pipeline with
computation.  The paper measures a modest 1.04x on an RTX 3080 for an
AXPY that stages x through shared memory.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.arch.presets import RTX3080_SYSTEM
from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.axpy import axpy_shared_async, axpy_shared_staged
from repro.timing.model import estimate_kernel_time

__all__ = ["GSOverlap"]


class GSOverlap(Microbenchmark):
    """Accelerate global->shared copies with memcpy_async."""

    name = "GSOverlap"
    category = "gpu-memory"
    pattern = "Global->shared memory copy takes much time"
    technique = "CUDA 11 memcpy_async for the data transfer"
    paper_speedup = "1.04 (best)"
    programmability = 3
    default_system = RTX3080_SYSTEM
    figure = "GSOverlap: shared-memory staging with memcpy_async"
    sweep_values = tuple(1 << k for k in range(18, 23))
    series = (("register-staged", "baseline"), ("memcpy_async", "optimized"))

    def run(self, n: int = 1 << 22, a: float = 2.0, block: int = 256, **_: Any) -> BenchResult:
        rt = CudaLite(self.system)
        rng = make_rng(label="gsoverlap")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        x = rt.to_device(hx)
        grid = -(-n // block)
        expect = hy + a * hx

        y = rt.to_device(hy)
        s_sync = rt.launch(axpy_shared_staged, grid, block, x, y, n, a)
        ok_sync = np.allclose(y.to_host(), expect, rtol=1e-5)

        y.fill_from(hy)
        s_async = rt.launch(axpy_shared_async, grid, block, x, y, n, a)
        ok_async = np.allclose(y.to_host(), expect, rtol=1e-5)
        rt.synchronize()
        rt.free(x)
        rt.free(y)

        gpu = self.system.gpu
        t_sync = estimate_kernel_time(s_sync, gpu).exec_s
        t_async = estimate_kernel_time(s_async, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="register-staged copy",
            optimized_name="memcpy_async",
            baseline_time=t_sync,
            optimized_time=t_async,
            verified=ok_sync and ok_async,
            params={"n": n, "block": block},
            metrics={
                "sync_issue_cycles": s_sync.issue_cycles,
                "async_issue_cycles": s_async.issue_cycles,
                "async_copy_bytes": s_async.async_copy_bytes,
            },
        )
