"""BankRedux (paper §IV-F, Fig. 12/13).

The interleaved-addressing reduction doubles its stride every step, so
step *s* has lanes hitting the same shared-memory bank ``2s`` words
apart — a 2-way, then 4-way, ... conflict that serializes the access.
Sequential addressing maps lanes to consecutive words: conflict-free.
The paper measures ~1.3x, growing with array size (Fig. 13).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.kernels.reduction import reduce_interleaved_bc, reduce_sequential
from repro.timing.model import estimate_kernel_time

__all__ = ["BankRedux", "run_block_reduction"]


def run_block_reduction(system, kernel_def, host_x: np.ndarray, block: int):
    """Launch a per-block reduction; returns (stats, partials, expected)."""
    n = host_x.shape[0]
    if n % block:
        raise ValueError("array length must be a multiple of the block size")
    rt = CudaLite(system)
    x = rt.to_device(host_x)
    r = rt.malloc(n // block)
    stats = rt.launch(kernel_def, n // block, block, x, r)
    rt.synchronize()
    partials = r.to_host()
    rt.free(x)
    rt.free(r)
    return stats, partials, host_x.reshape(-1, block).sum(axis=1)


class BankRedux(Microbenchmark):
    """Avoid shared-memory bank conflicts via sequential addressing."""

    name = "BankRedux"
    category = "gpu-memory"
    pattern = "Threads access different locations of the same bank"
    technique = "Change the algorithm to avoid bank conflicts"
    paper_speedup = "1.3 (average)"
    programmability = 5
    figure = "Fig. 13: reduction with and without bank conflicts"
    sweep_values = tuple(1 << k for k in range(16, 22))
    series = (("with conflicts", "baseline"), ("without conflicts", "optimized"))

    def run(self, n: int = 1 << 20, block: int = 256, **_: Any) -> BenchResult:
        hx = make_rng(label="bankredux").random(n, dtype=np.float32)
        s_bc, r_bc, expect = run_block_reduction(
            self.system, reduce_interleaved_bc, hx, block
        )
        s_seq, r_seq, _ = run_block_reduction(self.system, reduce_sequential, hx, block)
        ok = np.allclose(r_bc, expect, rtol=1e-4) and np.allclose(
            r_seq, expect, rtol=1e-4
        )
        gpu = self.system.gpu
        t_bc = estimate_kernel_time(s_bc, gpu).exec_s
        t_seq = estimate_kernel_time(s_seq, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="interleaved (conflicts)",
            optimized_name="sequential (conflict-free)",
            baseline_time=t_bc,
            optimized_time=t_seq,
            verified=ok,
            params={"n": n, "block": block},
            metrics={
                "bc_shared_efficiency": s_bc.shared_efficiency,
                "seq_shared_efficiency": s_seq.shared_efficiency,
                "bc_conflict_extra_passes": s_bc.bank_conflict_extra,
            },
        )
