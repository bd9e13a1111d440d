"""ReadOnlyMem (paper §V-B, Fig. 15).

Read-only data can live in constant or texture memory.  On Kepler-class
GPUs (Tesla K80) ordinary global loads bypass the L1 entirely, so
routing read-only operands through the texture path — which has its own
per-SM cache — speeds the paper's 2-D matrix addition up by ~4x.  On
Volta (V100) the texture cache is unified with the L1, so the gap
disappears; the paper uses exactly this pair of measurements to show
that data-placement advice is architecture-dependent.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.arch.presets import FORNAX
from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.matadd import (
    matadd_global,
    matadd_tex1d,
    matadd_tex2d,
)
from repro.timing.model import estimate_kernel_time

__all__ = ["ReadOnlyMem"]


class ReadOnlyMem(Microbenchmark):
    """Place read-only data in texture/constant memory."""

    name = "ReadOnlyMem"
    category = "data-movement"
    pattern = "Large amount of read-only data"
    technique = "Constant/texture memory for read-only data"
    paper_speedup = "4.3 (best)"
    programmability = 1
    default_system = FORNAX  # the effect shows on the K80
    figure = "Fig. 15: read-only data placement"
    x_name = "matrix order"
    sweep_values = (256, 512, 1024, 1536)
    series = (
        ("global", "baseline"), ("tex1D", "tex1d_time"), ("tex2D", "tex2d_time"),
    )

    BLOCK = (16, 16)

    def _launch_all(self, n: int):
        rt = CudaLite(self.system)
        rng = make_rng(label="readonly")
        ha = rng.random((n, n), dtype=np.float32)
        hb = rng.random((n, n), dtype=np.float32)
        ref = ha + hb
        grid = (-(-n // 16), -(-n // 16))

        a = rt.to_device(ha.ravel())
        b = rt.to_device(hb.ravel())
        c1 = rt.malloc(n * n)
        s_glob = rt.launch(matadd_global, grid, self.BLOCK, a, b, c1, n)
        ok = np.allclose(c1.to_host().reshape(n, n), ref)

        t1a = rt.texture_1d(ha.ravel())
        t1b = rt.texture_1d(hb.ravel())
        c2 = rt.malloc(n * n)
        s_t1 = rt.launch(matadd_tex1d, grid, self.BLOCK, t1a, t1b, c2, n)
        ok = ok and np.allclose(c2.to_host().reshape(n, n), ref)

        t2a = rt.texture_2d(ha)
        t2b = rt.texture_2d(hb)
        c3 = rt.malloc(n * n)
        s_t2 = rt.launch(matadd_tex2d, grid, self.BLOCK, t2a, t2b, c3, n)
        ok = ok and np.allclose(c3.to_host().reshape(n, n), ref)
        rt.synchronize()

        gpu = self.system.gpu
        return (
            estimate_kernel_time(s_glob, gpu).exec_s,
            estimate_kernel_time(s_t1, gpu).exec_s,
            estimate_kernel_time(s_t2, gpu).exec_s,
            ok,
        )

    def run(self, n: int = 1024, **_: Any) -> BenchResult:
        t_glob, t_t1, t_t2, ok = self._launch_all(n)
        best_tex = min(t_t1, t_t2)
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="global memory",
            optimized_name="texture memory",
            baseline_time=t_glob,
            optimized_time=best_tex,
            verified=ok,
            params={"n": n},
            metrics={"tex1d_time": t_t1, "tex2d_time": t_t2},
            notes=(
                "On V100-class systems the texture and global paths share "
                "the unified L1, so the speedup collapses to ~1x."
            ),
        )
