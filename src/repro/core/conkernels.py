"""Conkernels (paper §III-C, Fig. 6).

Kernels that cannot fill the GPU on their own (few blocks, memory-bound
phases) leave SMs idle.  Launching several such kernels into separate
streams lets the hardware co-schedule them; the paper's CUDA-Samples
experiment shows ~7x with 8 concurrently-launched kernels against
serial launching, visualized as overlapping nvvp timeline bars.

The microbenchmark launches ``n_kernels`` copies of a small
compute-heavy kernel — serially in one stream, then one-per-stream —
and renders the two timelines.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.rng import make_rng
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.simt.kernel import kernel

__all__ = ["clock_burn", "Conkernels"]


@kernel(name="clock_burn")
def clock_burn(ctx, x, n, rounds):
    """A compute-bound kernel occupying few blocks (CUDA-Samples style)."""
    i = ctx.global_thread_id()

    def body():
        v = ctx.load(x, i)
        for _ in ctx.range_uniform(rounds):
            v = ctx.fma(v, 1.0000001, 0.0000001)
        ctx.store(x, i, v)

    ctx.if_active(i < n, body)


def _burn_reference(x: np.ndarray, rounds: int) -> np.ndarray:
    v = x.astype(np.float32).copy()
    for _ in range(rounds):
        v = (v * np.float32(1.0000001) + np.float32(0.0000001)).astype(np.float32)
    return v


class Conkernels(Microbenchmark):
    """Overlap under-utilizing kernels with concurrent execution."""

    name = "Conkernels"
    category = "parallelism"
    pattern = "Multiple kernel instances launched on one GPU"
    technique = "Concurrent kernels via streams"
    paper_speedup = "7 (average)"
    programmability = 4
    figure = "Fig. 6: concurrent kernel execution"
    sweep_param = "n_kernels"
    x_name = "kernels"
    sweep_values = (1, 2, 4, 8, 16)
    series = (("serial", "baseline"), ("concurrent", "optimized"))

    def run(
        self,
        n_kernels: int = 8,
        blocks_each: int = 10,
        block: int = 256,
        rounds: int = 64,
        **_: Any,
    ) -> BenchResult:
        n = blocks_each * block
        rng = make_rng(label="conkernels")
        hosts = [rng.random(n, dtype=np.float32) for _ in range(n_kernels)]
        expect = [_burn_reference(h, rounds) for h in hosts]

        # serial: all launches into the default stream
        rt1 = CudaLite(self.system)
        bufs1 = [rt1.to_device(h) for h in hosts]
        with rt1.timer() as t_serial:
            for b in bufs1:
                rt1.launch(clock_burn, blocks_each, block, b, n, rounds)
        ok_serial = all(
            np.allclose(b.to_host(), e, rtol=1e-5) for b, e in zip(bufs1, expect)
        )
        for b in bufs1:
            rt1.free(b)
        serial_timeline = rt1.timeline.render_ascii()

        # concurrent: one stream per kernel
        rt2 = CudaLite(self.system)
        bufs2 = [rt2.to_device(h) for h in hosts]
        streams = [rt2.stream(f"stream {i + 1}") for i in range(n_kernels)]
        with rt2.timer() as t_conc:
            for b, s in zip(bufs2, streams):
                rt2.launch(clock_burn, blocks_each, block, b, n, rounds, stream=s)
        ok_conc = all(
            np.allclose(b.to_host(), e, rtol=1e-5) for b, e in zip(bufs2, expect)
        )
        for b in bufs2:
            rt2.free(b)
        conc_timeline = rt2.timeline.render_ascii()

        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="serial launching",
            optimized_name="concurrent kernels",
            baseline_time=t_serial.elapsed,
            optimized_time=t_conc.elapsed,
            verified=ok_serial and ok_conc,
            params={
                "n_kernels": n_kernels,
                "blocks_each": blocks_each,
                "block": block,
                "rounds": rounds,
            },
            notes=(
                "Fig. 6(b) serial timeline:\n" + serial_timeline +
                "\n\nFig. 6(a) concurrent timeline:\n" + conc_timeline
            ),
        )
