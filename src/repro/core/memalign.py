"""MemAlign (paper §IV-C, Fig. 10).

A warp reading 32 consecutive floats needs two 128-byte transactions
when the base address is transaction-aligned, three when it is offset —
50% more transaction slots for the same useful bytes.  On cached
architectures the extra segments are shared with neighbouring warps,
so the end-to-end cost is small (~3% on V100); on L1-less parts it is
larger.  The deliberately misaligned allocation uses the simulator's
``offset`` malloc, standing in for the paper's unaligned pointer.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.axpy import axpy_aligned, axpy_misaligned
from repro.timing.model import estimate_kernel_time

__all__ = ["MemAlign"]


class MemAlign(Microbenchmark):
    """Keep warp accesses aligned to transaction boundaries."""

    name = "MemAlign"
    category = "gpu-memory"
    pattern = "Memory allocated at unaligned addresses"
    technique = "Use aligned malloc"
    paper_speedup = "1.1 (average)"
    programmability = 1
    figure = "MemAlign: aligned vs misaligned AXPY"
    sweep_values = tuple(1 << k for k in range(18, 23))
    series = (("misaligned", "baseline"), ("aligned", "optimized"))

    def run(self, n: int = 1 << 22, a: float = 2.0, block: int = 256, **_: Any) -> BenchResult:
        rt = CudaLite(self.system)
        rng = make_rng(label="memalign")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        grid = -(-n // block)
        tid = np.arange(n)

        # aligned: arrays on 256B boundaries, kernel skips element 0
        x = rt.to_device(hx)
        y = rt.to_device(hy)
        s_al = rt.launch(axpy_aligned, grid, block, x, y, n, a)
        exp_al = np.where((tid > 0) & (tid < n), hy + a * hx, hy)
        ok_al = np.allclose(y.to_host(), exp_al, rtol=1e-5)

        # misaligned: same arithmetic, arrays deliberately offset by one
        # element from any transaction boundary
        xm = rt.to_device(hx, offset=4)
        ym = rt.to_device(hy, offset=4)
        s_mis = rt.launch(axpy_misaligned, grid, block, xm, ym, n, a)
        exp_mis = np.where(tid >= 1, hy + a * hx, hy)
        ok_mis = np.allclose(ym.to_host(), exp_mis, rtol=1e-5)
        rt.synchronize()

        gpu = self.system.gpu
        t_al = estimate_kernel_time(s_al, gpu).exec_s
        t_mis = estimate_kernel_time(s_mis, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="misaligned",
            optimized_name="aligned",
            baseline_time=t_mis,
            optimized_time=t_al,
            verified=ok_al and ok_mis,
            params={"n": n, "block": block},
            metrics={
                "aligned_transactions_per_request": (
                    s_al.transactions / s_al.global_requests
                ),
                "misaligned_transactions_per_request": (
                    s_mis.transactions / s_mis.global_requests
                ),
            },
        )
