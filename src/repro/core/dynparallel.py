"""DynParallel (paper §III-B, Fig. 4/5).

Dynamic parallelism lets a running kernel launch child kernels, which
suits adaptive algorithms.  The paper's example is the Mariani–Silver
Mandelbrot renderer: compute the dwell only on a rectangle's *border*;
if the border dwell is uniform, fill the rectangle without computing
its interior, otherwise subdivide and recurse — each step a device-side
launch.  Against the escape-time baseline (every pixel computed) the
paper reports 3.26x at 16000^2, shrinking (and inverting) as the image
gets small and per-launch overhead dominates.

The simulator executes the recursion as a host-side driver that fuses
each recursion level's work into aggregate kernels for vectorized
execution, while charging one device-launch overhead per rectangle
kernel the real algorithm would have launched — the accounting the
feature is about.  Image sizes are scaled down from the paper's
(16000^2 exceeds the interpreter's comfortable range); the
overhead-vs-saved-work crossover reproduces at proportionally smaller
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.arch.presets import RTX3080_SYSTEM
from repro.core.base import BenchResult, Microbenchmark
from repro.host.runtime import CudaLite
from repro.host.stream import Op
from repro.kernels.mandelbrot import (
    dwell_host_reference,
    fill_indexed,
    mandel_escape,
    mandel_points,
)

from repro.timing.model import DEVICE_LAUNCH_CONCURRENCY

__all__ = ["DynParallel", "mariani_silver", "MandelView", "DEVICE_LAUNCH_CONCURRENCY"]


@dataclass(frozen=True)
class MandelView:
    """The complex-plane window being rendered."""

    x0: float = -2.0
    y0: float = -1.5
    span: float = 3.0

    def steps(self, w: int, h: int) -> tuple[float, float]:
        return self.span / w, self.span / h


def _border_coords(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel coordinates of every rectangle's border, concatenated.

    ``rects`` is an (n, 4) int array of (x0, y0, w, h).  Returns
    (xs, ys, rect_id) arrays.
    """
    xs_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for i, (x0, y0, w, h) in enumerate(rects):
        top_x = np.arange(x0, x0 + w)
        left_y = np.arange(y0 + 1, y0 + h - 1)
        xs = np.concatenate(
            [top_x, top_x, np.full(left_y.size, x0), np.full(left_y.size, x0 + w - 1)]
        )
        ys = np.concatenate(
            [np.full(w, y0), np.full(w, y0 + h - 1), left_y, left_y]
        )
        xs_parts.append(xs)
        ys_parts.append(ys)
        ids.append(np.full(xs.size, i))
    return (
        np.concatenate(xs_parts),
        np.concatenate(ys_parts),
        np.concatenate(ids),
    )


def mariani_silver(
    rt: CudaLite,
    out,
    w: int,
    h: int,
    *,
    view: MandelView = MandelView(),
    max_dwell: int = 512,
    init_subdiv: int = 4,
    subdiv: int = 4,
    min_size: int = 16,
    max_depth: int = 6,
    block: int = 256,
) -> dict[str, float]:
    """Render via Mariani–Silver; returns work/launch statistics.

    Each recursion level runs three fused kernels (border dwell, fills,
    per-pixel leaves) and submits one device-launch-overhead charge per
    rectangle the device-side recursion would have launched.
    """
    gpu = rt.gpu
    dx, dy = view.steps(w, h)
    step_x, step_y = w // init_subdiv, h // init_subdiv
    rects = np.array(
        [
            (i * step_x, j * step_y, step_x, step_y)
            for j in range(init_subdiv)
            for i in range(init_subdiv)
        ],
        dtype=np.int64,
    )
    device_launches = init_subdiv * init_subdiv
    pixels_computed = 0
    pixels_filled = 0
    scratch = []

    for depth in range(max_depth + 1):
        if rects.size == 0:
            break
        xs, ys, rect_id = _border_coords(rects)
        n_pts = xs.size
        dxs = rt.to_device(xs.astype(np.int64))
        dys = rt.to_device(ys.astype(np.int64))
        dd = rt.malloc(n_pts, np.int64)
        scratch += [dxs, dys, dd]
        rt.launch(
            mandel_points,
            -(-n_pts // block),
            block,
            dxs, dys, dd, n_pts, view.x0, view.y0, dx, dy, max_dwell,
            launch_kind="device",
            name="ms_border_dwell",
        )
        pixels_computed += n_pts
        dwells = dd.to_host()

        # classify rectangles
        fill_idx_parts: list[np.ndarray] = []
        fill_val_parts: list[np.ndarray] = []
        leaf_rects: list[np.ndarray] = []
        children: list[np.ndarray] = []
        for i, (x0, y0, rw, rh) in enumerate(rects):
            d = dwells[rect_id == i]
            if d.size and (d == d[0]).all():
                yy, xx = np.mgrid[y0 : y0 + rh, x0 : x0 + rw]
                fill_idx_parts.append((yy * w + xx).ravel())
                fill_val_parts.append(np.full(rw * rh, d[0], dtype=np.int64))
                pixels_filled += rw * rh
            elif min(rw, rh) // subdiv < min_size or depth == max_depth:
                leaf_rects.append(np.array([x0, y0, rw, rh]))
            else:
                # subdivide SUBDIV x SUBDIV, like the CUDA sample
                xs_edges = np.linspace(x0, x0 + rw, subdiv + 1, dtype=np.int64)
                ys_edges = np.linspace(y0, y0 + rh, subdiv + 1, dtype=np.int64)
                for cy0, cy1 in zip(ys_edges[:-1], ys_edges[1:]):
                    for cx0, cx1 in zip(xs_edges[:-1], xs_edges[1:]):
                        children.append(
                            np.array([cx0, cy0, cx1 - cx0, cy1 - cy0])
                        )

        # fused fill of all uniform rectangles (one fill launch per rect
        # in the device-side algorithm)
        if fill_idx_parts:
            idxs = np.concatenate(fill_idx_parts)
            vals = np.concatenate(fill_val_parts)
            di = rt.to_device(idxs.astype(np.int64))
            dv = rt.to_device(vals)
            scratch += [di, dv]
            rt.launch(
                fill_indexed,
                -(-idxs.size // block),
                block,
                out, di, dv, idxs.size,
                launch_kind="device",
                name="ms_fill",
            )
            device_launches += len(fill_idx_parts)

        # fused per-pixel evaluation of leaf rectangles
        if leaf_rects:
            coords = []
            for x0, y0, rw, rh in leaf_rects:
                yy, xx = np.mgrid[y0 : y0 + rh, x0 : x0 + rw]
                coords.append((xx.ravel(), yy.ravel()))
            lx = np.concatenate([c[0] for c in coords])
            ly = np.concatenate([c[1] for c in coords])
            dlx = rt.to_device(lx.astype(np.int64))
            dly = rt.to_device(ly.astype(np.int64))
            dld = rt.malloc(lx.size, np.int64)
            rt.launch(
                mandel_points,
                -(-lx.size // block),
                block,
                dlx, dly, dld, lx.size, view.x0, view.y0, dx, dy, max_dwell,
                launch_kind="device",
                name="ms_leaf_pixels",
            )
            pixels_computed += lx.size
            # scatter results into the image
            dli = rt.to_device((ly * w + lx).astype(np.int64))
            scratch += [dlx, dly, dld, dli]
            rt.launch(
                fill_indexed,
                -(-lx.size // block),
                block,
                out, dli, dld, lx.size,
                launch_kind="device",
                name="ms_leaf_store",
            )
            device_launches += len(leaf_rects)

        # write the border dwells themselves
        dbi = rt.to_device((ys * w + xs).astype(np.int64))
        scratch.append(dbi)
        rt.launch(
            fill_indexed,
            -(-n_pts // block),
            block,
            out, dbi, dd, n_pts,
            launch_kind="device",
            name="ms_border_store",
        )

        device_launches += len(children)
        rects = np.array(children, dtype=np.int64) if children else np.empty((0, 4), np.int64)

    # freed after the last level only: an address reused inside the loop
    # would move later levels' launch keys, traces and results
    for buf in scratch:
        rt.free(buf)

    # Charge the device-launch overheads the fused kernels absorbed:
    # the real recursion pays one launch per rectangle kernel, but
    # launches from different blocks overlap in the pending-launch pool.
    fused_launches = len(rt.kernel_log)
    extra = max(device_launches - fused_launches, 0)
    if extra:
        rt.engine.submit(
            Op(
                kind="kernel",
                name=f"device-launch overhead x{extra}",
                stream=rt.default_stream,
                duration=extra * gpu.device_launch_overhead_s
                / DEVICE_LAUNCH_CONCURRENCY,
                sm_demand=1,
            )
        )
    return {
        "device_launches": float(device_launches),
        "pixels_computed": float(pixels_computed),
        "pixels_filled": float(pixels_filled),
    }


class DynParallel(Microbenchmark):
    """Let the GPU generate its own work for adaptive algorithms."""

    name = "DynParallel"
    category = "parallelism"
    pattern = "Nested parallelism, e.g. adaptive grids"
    technique = "Dynamic parallelism: the GPU generates its own work"
    paper_speedup = "3.26 (best)"
    programmability = 4
    default_system = RTX3080_SYSTEM
    figure = "Fig. 5: dynamic parallelism (Mandelbrot)"
    sweep_param = "size"
    x_name = "image size"
    sweep_values = (128, 256, 512, 1024)
    series = (("escape time", "baseline"), ("Mariani-Silver", "optimized"))

    def run(
        self,
        size: int = 512,
        max_dwell: int = 512,
        min_mismatch_frac: float = 0.01,
        **_: Any,
    ) -> BenchResult:
        w = h = size
        view = MandelView()
        dx, dy = view.steps(w, h)
        ref = dwell_host_reference(w, h, view.x0, view.y0, dx, dy, max_dwell)

        # escape-time baseline
        rt1 = CudaLite(self.system)
        out1 = rt1.malloc(w * h, np.int64)
        with rt1.timer() as t_escape:
            rt1.launch(
                mandel_escape,
                (-(-w // 16), -(-h // 16)),
                (16, 16),
                out1, w, h, view.x0, view.y0, dx, dy, max_dwell,
            )
        ok_escape = np.array_equal(out1.to_host().reshape(h, w), ref)
        rt1.free(out1)

        # Mariani-Silver with dynamic parallelism
        rt2 = CudaLite(self.system)
        out2 = rt2.malloc(w * h, np.int64)
        with rt2.timer() as t_ms:
            info = mariani_silver(rt2, out2, w, h, view=view, max_dwell=max_dwell)
        ms_img = out2.to_host().reshape(h, w)
        rt2.free(out2)
        mismatch = float((ms_img != ref).mean())

        return BenchResult(
            benchmark=self.name,
            system=self.system.name,
            baseline_name="escape time",
            optimized_name="Mariani-Silver (dyn. parallelism)",
            baseline_time=t_escape.elapsed,
            optimized_time=t_ms.elapsed,
            verified=ok_escape and mismatch <= min_mismatch_frac,
            params={"size": size, "max_dwell": max_dwell},
            metrics={
                "pixel_fraction_computed": info["pixels_computed"] / (w * h),
                "device_launches": info["device_launches"],
                "fill_fraction": info["pixels_filled"] / (w * h),
                "image_mismatch_fraction": mismatch,
            },
        )
