"""Shmem (paper §IV-A).

Matrix multiplication has high data reuse: each operand element
participates in ``n`` products.  Staging 16x16 tiles in shared memory
turns ``n`` global reads per element into ``n/16``; on a V100 the paper
reports ~20-25% end-to-end because the L1/L2 already capture part of
the naive kernel's reuse.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.matmul import matmul_grid_for, matmul_naive, matmul_tiled
from repro.timing.model import estimate_kernel_time

__all__ = ["Shmem"]


class Shmem(Microbenchmark):
    """Cache repeatedly-accessed data in shared memory."""

    name = "Shmem"
    category = "gpu-memory"
    pattern = "The data needs to be accessed several times"
    technique = "Use shared memory for repeatedly accessed data"
    paper_speedup = "1.25 (average)"
    programmability = 2
    figure = "Shmem: matmul with and without shared-memory tiling"
    x_name = "matrix order"
    sweep_values = (64, 128, 256, 384)
    series = (("global-only", "baseline"), ("shared-tiled", "optimized"))

    def run(self, n: int = 256, **_: Any) -> BenchResult:
        rt = CudaLite(self.system)
        rng = make_rng(label="shmem")
        ha = rng.random((n, n), dtype=np.float32)
        hb = rng.random((n, n), dtype=np.float32)
        ref = ha @ hb
        a = rt.to_device(ha.ravel())
        b = rt.to_device(hb.ravel())
        grid, block = matmul_grid_for(n)

        c1 = rt.malloc(n * n)
        s_naive = rt.launch(matmul_naive, grid, block, a, b, c1, n)
        ok_naive = np.allclose(c1.to_host().reshape(n, n), ref, rtol=1e-3, atol=1e-3)

        c2 = rt.malloc(n * n)
        s_tiled = rt.launch(matmul_tiled, grid, block, a, b, c2, n)
        ok_tiled = np.allclose(c2.to_host().reshape(n, n), ref, rtol=1e-3, atol=1e-3)
        rt.synchronize()
        for buf in (a, b, c1, c2):
            rt.free(buf)

        gpu = self.system.gpu
        t_naive = estimate_kernel_time(s_naive, gpu)
        t_tiled = estimate_kernel_time(s_tiled, gpu)
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="global-only",
            optimized_name="shared-tiled",
            baseline_time=t_naive.exec_s,
            optimized_time=t_tiled.exec_s,
            verified=ok_naive and ok_tiled,
            params={"n": n},
            metrics={
                "naive_dram_bytes": t_naive.traffic.dram_bytes,
                "tiled_dram_bytes": t_tiled.traffic.dram_bytes,
                "tiled_shared_bytes": s_tiled.shared_bytes,
            },
        )
