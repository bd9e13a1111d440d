"""HDOverlap (paper §V-A, Fig. 14).

Chunking an offloaded computation across streams with
``cudaMemcpyAsync`` overlaps data movement with kernel execution.
AXPY has a 1:1 movement-to-compute ratio, so transfers dominate and the
overlap hides only the (small) kernel time — the paper measures just
1.036x and includes the benchmark precisely to demonstrate that the
benefit depends on the compute/transfer balance.

``compute_rounds`` scales the kernel's arithmetic per element so the
crossover toward larger wins can be explored.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.simt.kernel import kernel

__all__ = ["HDOverlap", "axpy_rounds"]


@kernel(name="axpy_rounds")
def axpy_rounds(ctx, x, y, n, a, rounds):
    """AXPY with adjustable arithmetic intensity."""
    i = ctx.global_thread_id()

    def body():
        v = ctx.load(x, i)
        acc = ctx.load(y, i)
        for _ in ctx.range_uniform(rounds):
            acc = ctx.fma(v, a, acc)
        ctx.store(y, i, acc)

    ctx.if_active(i < n, body)


def _reference(hx: np.ndarray, hy: np.ndarray, a: float, rounds: int) -> np.ndarray:
    acc = hy.copy()
    for _ in range(rounds):
        acc = (hx * np.float32(a) + acc).astype(np.float32)
    return acc


class HDOverlap(Microbenchmark):
    """Overlap host-device copies with kernel execution via streams."""

    name = "HDOverlap"
    category = "data-movement"
    pattern = "Host-device memory copy takes much time"
    technique = "cudaMemcpyAsync + streams to overlap the transfer"
    paper_speedup = "1.036 (best)"
    programmability = 1
    figure = "Fig. 14: overlapping copies with computation"
    sweep_values = tuple(1 << k for k in range(18, 23))
    series = (("synchronous", "baseline"), ("async streams", "optimized"))

    def run(
        self,
        n: int = 1 << 22,
        a: float = 2.0,
        rounds: int = 1,
        n_chunks: int = 4,
        block: int = 256,
        **_: Any,
    ) -> BenchResult:
        rng = make_rng(label="hdoverlap")
        hx = rng.random(n, dtype=np.float32)
        hy = rng.random(n, dtype=np.float32)
        expect = _reference(hx, hy, a, rounds)

        # baseline: one synchronous copy-in, kernel, copy-out
        rt1 = CudaLite(self.system)
        x1 = rt1.malloc(n)
        y1 = rt1.malloc(n)
        with rt1.timer() as t_sync:
            rt1.memcpy_h2d(x1, hx, pinned=True)
            rt1.memcpy_h2d(y1, hy, pinned=True)
            rt1.launch(axpy_rounds, -(-n // block), block, x1, y1, n, a, rounds)
            out_sync = rt1.memcpy_d2h(y1, pinned=True)
        ok_sync = np.allclose(out_sync, expect, rtol=1e-4)
        rt1.free(x1)
        rt1.free(y1)

        # optimized: chunked async pipeline across streams
        rt2 = CudaLite(self.system)
        x2 = rt2.malloc(n)
        y2 = rt2.malloc(n)
        chunk = n // n_chunks
        streams = [rt2.stream(f"stream {i + 1}") for i in range(n_chunks)]
        with rt2.timer() as t_async:
            outs = []
            for c, s in enumerate(streams):
                lo = c * chunk
                hi = n if c == n_chunks - 1 else lo + chunk
                m = hi - lo
                xv = _sub(x2, lo, m)
                yv = _sub(y2, lo, m)
                rt2.memcpy_h2d(xv, hx[lo:hi], stream=s, pinned=True,
                               name=f"H2D x[{c}]")
                rt2.memcpy_h2d(yv, hy[lo:hi], stream=s, pinned=True,
                               name=f"H2D y[{c}]")
                rt2.launch(axpy_rounds, -(-m // block), block, xv, yv, m, a, rounds,
                           stream=s)
                outs.append(rt2.memcpy_d2h(yv, stream=s, pinned=True,
                                           name=f"D2H y[{c}]"))
        ok_async = np.allclose(np.concatenate(outs), expect, rtol=1e-4)
        rt2.free(x2)
        rt2.free(y2)

        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="synchronous copy",
            optimized_name=f"{n_chunks}-stream async pipeline",
            baseline_time=t_sync.elapsed,
            optimized_time=t_async.elapsed,
            verified=ok_sync and ok_async,
            params={"n": n, "rounds": rounds, "n_chunks": n_chunks},
        )


def _sub(arr, start: int, length: int):
    """A DeviceArray view of ``arr[start : start+length]``."""
    return arr.slice(start, length)
