"""UniMem (paper §V-C, Fig. 16).

*Memory access density* is the fraction of transferred data the kernel
actually uses.  An explicit ``cudaMemcpy`` always ships whole buffers;
unified memory migrates only the touched pages.  Striding AXPY controls
the density: at stride 1 the paging machinery makes unified memory a
bit slower, but once the stride exceeds a page the migrated volume
shrinks proportionally and unified memory wins (~3x average in the
paper).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.axpy import axpy_strided

__all__ = ["UniMem"]


class UniMem(Microbenchmark):
    """Migrate only the needed pages with unified memory."""

    name = "UniMem"
    category = "data-movement"
    pattern = "Low memory access density"
    technique = "Unified memory copies only the necessary pages"
    paper_speedup = "3 (average)"
    programmability = 3
    figure = "Fig. 16: memory access density"
    sweep_param = "stride"
    x_name = "stride (1/density)"
    sweep_values = (1, 1 << 4, 1 << 8, 1 << 12, 1 << 14, 1 << 16)
    series = (("explicit copy", "baseline"), ("unified memory", "optimized"))

    def _offload_explicit(self, hx, hy, n, a, stride, block):
        """Full-buffer copies + kernel + copy-back."""
        rt = CudaLite(self.system)
        x = rt.malloc(n)
        y = rt.malloc(n)
        threads = -(-n // stride)
        with rt.timer() as t:
            rt.memcpy_h2d(x, hx, pinned=True)
            rt.memcpy_h2d(y, hy, pinned=True)
            rt.launch(axpy_strided, -(-threads // block), block, x, y, n, a, stride)
            out = rt.memcpy_d2h(y, pinned=True)
        return t.elapsed, out

    def _offload_managed(self, hx, hy, n, a, stride, block):
        """Managed allocations: pages fault over on demand."""
        rt = CudaLite(self.system)
        x = rt.malloc_managed(n)
        y = rt.malloc_managed(n)
        x.fill_from(hx)  # host-side initialization (untimed, both versions)
        y.fill_from(hy)
        threads = -(-n // stride)
        with rt.timer() as t:
            rt.launch(axpy_strided, -(-threads // block), block, x, y, n, a, stride)
            out = rt.managed_to_host(y)
        return t.elapsed, out

    def run(
        self,
        n: int = 1 << 22,
        a: float = 2.0,
        stride: int = 1 << 15,
        block: int = 256,
        **_: Any,
    ) -> BenchResult:
        rng = make_rng(label="unimem")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        idx = np.arange(0, n, stride)
        expect = hy.copy()
        expect[idx] = hy[idx] + a * hx[idx]

        t_exp, out_exp = self._offload_explicit(hx, hy, n, a, stride, block)
        t_um, out_um = self._offload_managed(hx, hy, n, a, stride, block)
        ok = np.allclose(out_exp, expect, rtol=1e-5) and np.allclose(
            out_um, expect, rtol=1e-5
        )
        page = self.system.gpu.um_page_bytes
        touched_pages = np.unique(idx * 4 // page).size
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="explicit full copies",
            optimized_name="unified memory",
            baseline_time=t_exp,
            optimized_time=t_um,
            verified=ok,
            params={"n": n, "stride": stride},
            metrics={
                "explicit_bytes": 3.0 * n * 4,
                "um_touched_pages_per_array": float(touched_pages),
                "access_density": 1.0 / stride,
            },
        )
