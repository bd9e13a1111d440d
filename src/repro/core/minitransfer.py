"""MiniTransfer (paper §V-D, Fig. 17).

The wrong data layout moves useless bytes: offloading SpMV with the
matrix in dense row-major form ships every zero across PCIe (and
multiplies by it).  Storing the matrix as CSR ships three small
vectors.  The paper's 10240^2 sweep shows the CSR advantage growing as
the matrix gets sparser — up to 190x at the sparsest point, transfer-
dominated throughout.

The simulated sweep uses a scaled matrix order (default 1024) with the
same density range; the dense transfer volume scales as n^2 and the CSR
volume as nnz, so the ratio shape is preserved.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.spmv import spmv_csr, spmv_dense_row
from repro.sparse.csr import CSRMatrix, random_sparse

__all__ = ["MiniTransfer"]


class MiniTransfer(Microbenchmark):
    """Avoid useless transfers with a compressed data layout."""

    name = "MiniTransfer"
    category = "data-movement"
    pattern = "Wrong data layout causes useless CPU-GPU transfer"
    technique = "Compressed (CSR) layout avoids useless transfer"
    paper_speedup = "190 (best)"
    programmability = 5
    figure = "Fig. 17: SpMV dense vs CSR offload"
    sweep_param = "nnz"
    x_name = "nnz"
    series = (("dense", "baseline"), ("CSR", "optimized"))

    def _offload_dense(self, csr: CSRMatrix, hx: np.ndarray, block: int):
        n = csr.n_rows
        dense = csr.to_dense()
        rt = CudaLite(self.system)
        a = rt.malloc(n * n)
        x = rt.malloc(n)
        y = rt.malloc(n)
        with rt.timer() as t:
            rt.memcpy_h2d(a, dense.ravel(), pinned=True)
            rt.memcpy_h2d(x, hx, pinned=True)
            rt.launch(spmv_dense_row, -(-n // block), block, a, x, y, n)
            out = rt.memcpy_d2h(y, pinned=True)
        for buf in (a, x, y):
            rt.free(buf)
        return t.elapsed, out

    def _offload_csr(self, csr: CSRMatrix, hx: np.ndarray, block: int):
        n = csr.n_rows
        rt = CudaLite(self.system)
        vals = rt.malloc(max(csr.nnz, 1), np.float32)
        cols = rt.malloc(max(csr.nnz, 1), np.int32)
        rptr = rt.malloc(n + 1, np.int32)
        x = rt.malloc(n)
        y = rt.malloc(n)
        with rt.timer() as t:
            rt.memcpy_h2d(vals, csr.values, pinned=True)
            rt.memcpy_h2d(cols, csr.col_idx, pinned=True)
            rt.memcpy_h2d(rptr, csr.row_ptr, pinned=True)
            rt.memcpy_h2d(x, hx, pinned=True)
            rt.launch(spmv_csr, -(-n // block), block, vals, cols, rptr, x, y, n)
            out = rt.memcpy_d2h(y, pinned=True)
        for buf in (vals, cols, rptr, x, y):
            rt.free(buf)
        return t.elapsed, out

    def run(self, n: int = 1024, nnz: int = 4096, block: int = 256, **_: Any) -> BenchResult:
        csr = random_sparse(n, nnz, label="minitransfer")
        hx = make_rng(label="minitransfer-x").random(n, dtype=np.float32)
        expect = csr.spmv(hx)

        t_dense, out_dense = self._offload_dense(csr, hx, block)
        t_csr, out_csr = self._offload_csr(csr, hx, block)
        ok = np.allclose(out_dense, expect, rtol=1e-3, atol=1e-4) and np.allclose(
            out_csr, expect, rtol=1e-3, atol=1e-4
        )
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="dense layout",
            optimized_name="CSR layout",
            baseline_time=t_dense,
            optimized_time=t_csr,
            verified=ok,
            params={"n": n, "nnz": nnz},
            metrics={
                "dense_transfer_bytes": float(n * n * 4 + n * 8),
                "csr_transfer_bytes": float(csr.nbytes + n * 8),
                "density": csr.density,
            },
        )

    def sweep_points(
        self, values: Sequence[Any] | None, params: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Fig. 17's matrix order defaults to 2048 (:meth:`run`'s to
        1024) and its default nnz values scale with it."""
        n = params.get("n", 2048)
        nnzs = values or [n * 64, n * 16, n * 4, n, n // 4]
        return [{**params, "n": n, "nnz": x} for x in nnzs]
