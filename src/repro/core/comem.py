"""CoMem (paper §IV-B, Fig. 8/9).

Block vs. cyclic distribution of a data-parallel loop: with a *block*
distribution each thread owns a contiguous chunk, so the 32 lanes of a
warp touch addresses a chunk apart — every request explodes into many
memory transactions.  A *cyclic* distribution gives consecutive
elements to consecutive lanes: one transaction per warp.  The paper
measures ~18x with ``<<<1024, 256>>>`` on a V100 (Fig. 9).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.axpy import axpy_block, axpy_cyclic
from repro.timing.model import estimate_kernel_time

__all__ = ["CoMem"]


class CoMem(Microbenchmark):
    """Coalesce global accesses via cyclic loop distribution."""

    name = "CoMem"
    category = "gpu-memory"
    pattern = "Strided/random access across threads (uncoalesced)"
    technique = "Consecutive memory access across threads"
    paper_speedup = "18 (average)"
    programmability = 3
    figure = "Fig. 9: AXPY block vs cyclic distribution"
    sweep_values = tuple(1 << k for k in range(18, 23))
    series = (("BLOCK", "baseline"), ("CYCLIC", "optimized"))

    #: the paper's kernel configuration for Fig. 9
    GRID = 1024
    BLOCK = 256

    def run(self, n: int = 1 << 22, a: float = 2.0, **_: Any) -> BenchResult:
        rt = CudaLite(self.system)
        rng = make_rng(label="comem")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        x = rt.to_device(hx)
        expect = hy + a * hx

        y = rt.to_device(hy)
        s_block = rt.launch(axpy_block, self.GRID, self.BLOCK, x, y, n, a)
        ok_block = np.allclose(y.to_host(), expect, rtol=1e-5)

        y.fill_from(hy)
        s_cyclic = rt.launch(axpy_cyclic, self.GRID, self.BLOCK, x, y, n, a)
        ok_cyclic = np.allclose(y.to_host(), expect, rtol=1e-5)
        rt.synchronize()

        gpu = self.system.gpu
        t_block = estimate_kernel_time(s_block, gpu).exec_s
        t_cyclic = estimate_kernel_time(s_cyclic, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="BLOCK",
            optimized_name="CYCLIC",
            baseline_time=t_block,
            optimized_time=t_cyclic,
            verified=ok_block and ok_cyclic,
            params={"n": n, "grid": self.GRID, "block": self.BLOCK},
            metrics={
                "block_transactions_per_request": (
                    s_block.transactions / s_block.global_requests
                ),
                "cyclic_transactions_per_request": (
                    s_cyclic.transactions / s_cyclic.global_requests
                ),
                "block_gld_efficiency": s_block.gld_efficiency,
                "cyclic_gld_efficiency": s_cyclic.gld_efficiency,
            },
        )
