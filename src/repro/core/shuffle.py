"""Shuffle (paper §IV-E, Fig. 11).

Once a block reduction is down to a single warp, the remaining steps
can exchange partial sums directly between registers with
``__shfl_down_sync`` instead of bouncing through shared memory with a
barrier per step.  The paper measures ~25% at N = 2^27, growing with
problem size.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.core.bankredux import run_block_reduction
from repro.kernels.reduction import reduce_sequential, reduce_shuffle
from repro.timing.model import estimate_kernel_time

__all__ = ["Shuffle"]


class Shuffle(Microbenchmark):
    """Exchange data between warp lanes via registers."""

    name = "Shuffle"
    category = "gpu-memory"
    pattern = "Data exchange between threads"
    technique = "Warp shuffle shares results between registers"
    paper_speedup = "1.25 (average)"
    programmability = 5
    figure = "Fig. 11: reduction using shuffle"
    sweep_values = tuple(1 << k for k in range(16, 23))
    series = (("traditional", "baseline"), ("shuffle", "optimized"))

    def run(self, n: int = 1 << 22, block: int = 256, **_: Any) -> BenchResult:
        hx = make_rng(label="shuffle").random(n, dtype=np.float32)
        s_seq, r_seq, expect = run_block_reduction(
            self.system, reduce_sequential, hx, block
        )
        s_shfl, r_shfl, _ = run_block_reduction(self.system, reduce_shuffle, hx, block)
        ok = np.allclose(r_seq, expect, rtol=1e-4) and np.allclose(
            r_shfl, expect, rtol=1e-4
        )
        gpu = self.system.gpu
        t_seq = estimate_kernel_time(s_seq, gpu).exec_s
        t_shfl = estimate_kernel_time(s_shfl, gpu).exec_s
        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="shared-memory reduction",
            optimized_name="shuffle reduction",
            baseline_time=t_seq,
            optimized_time=t_shfl,
            verified=ok,
            params={"n": n, "block": block},
            metrics={
                "seq_barriers": float(s_seq.barriers),
                "shfl_barriers": float(s_shfl.barriers),
                "shfl_ops": s_shfl.shuffles,
                "seq_shared_requests": s_seq.shared_requests,
                "shfl_shared_requests": s_shfl.shared_requests,
            },
        )
