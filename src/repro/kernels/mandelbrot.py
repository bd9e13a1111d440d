"""Mandelbrot kernels (paper §III-B, DynParallel / Fig. 5).

Two renderers of the same image:

* *escape time* — the baseline: every pixel runs the dwell iteration to
  escape or ``max_dwell``;
* *Mariani–Silver* — the dynamic-parallelism algorithm: compute the
  dwell only on a rectangle's border; if the border dwell is uniform
  the whole rectangle is filled with that dwell, otherwise the
  rectangle is subdivided into four children, each launched as its own
  (device-side) kernel.  Interior pixels of uniform regions are never
  computed, which is where the 3-4x win at large image sizes comes
  from; at small sizes the per-launch overhead dominates.

The dwell loop is the canonical ``z = z^2 + c`` iteration.  Inside a
warp the lock-step model charges every lane for the slowest lane's trip
count — the divergence cost that makes per-pixel dwell expensive.
"""

from __future__ import annotations

import numpy as np

from repro.simt.kernel import kernel

__all__ = [
    "MAX_DWELL_DEFAULT",
    "mandel_escape",
    "mandel_points",
    "fill_indexed",
    "dwell_host_reference",
]

MAX_DWELL_DEFAULT = 256


def _dwell_loop(ctx, cr, ci, max_dwell):
    """Shared dwell iteration: returns the dwell count per lane."""
    zr = ctx.zeros(np.float64)
    zi = ctx.zeros(np.float64)
    dwell = ctx.zeros(np.int64)
    live = ctx.const(1, np.int64) > 0  # all lanes start live

    def body(zr, zi, dwell, cr, ci):
        zr2 = zr * zr
        zi2 = zi * zi
        new_zi = 2.0 * zr * zi + ci
        new_zr = zr2 - zi2 + cr
        # predicated write-back: escaped lanes keep their final state
        zr = ctx.masked(zr, new_zr)
        zi = ctx.masked(zi, new_zi)
        dwell = ctx.masked(dwell, dwell + 1)
        live = ((zr * zr + zi * zi) < 4.0) & (dwell < max_dwell)
        return live, zr, zi, dwell, cr, ci

    _, _, dwell, _, _ = ctx.while_active(
        live, body, zr, zi, dwell, cr, ci, max_iterations=max_dwell + 1
    )
    return dwell


@kernel(registers=40)
def mandel_escape(ctx, out, w, h, x0, y0, dx, dy, max_dwell):
    """Escape-time renderer: one pixel per thread over the whole image."""
    px = ctx.block_idx_x * ctx.block.x + ctx.thread_idx_x
    py = ctx.block_idx_y * ctx.block.y + ctx.thread_idx_y

    def body():
        cr = px.astype(np.float64) * dx + x0
        ci = py.astype(np.float64) * dy + y0
        dwell = _dwell_loop(ctx, cr, ci, max_dwell)
        ctx.store(out, py * w + px, dwell)

    ctx.if_active((px < w) & (py < h), body)


@kernel(registers=40)
def mandel_points(ctx, xs, ys, dwells, n, x0, y0, dx, dy, max_dwell):
    """Dwell computation for an explicit list of pixel coordinates.

    The Mariani–Silver driver uses this for rectangle borders: the
    coordinate arrays hold the border pixels of every rectangle of the
    current subdivision level, concatenated.
    """
    i = ctx.global_thread_id()

    def body():
        px = ctx.load(xs, i)
        py = ctx.load(ys, i)
        cr = px.astype(np.float64) * dx + x0
        ci = py.astype(np.float64) * dy + y0
        dwell = _dwell_loop(ctx, cr, ci, max_dwell)
        ctx.store(dwells, i, dwell)

    ctx.if_active(i < n, body)


@kernel
def fill_indexed(ctx, out, idxs, vals, n):
    """Scatter fill: ``out[idxs[i]] = vals[i]``.

    Used by Mariani–Silver to fill uniform rectangles with their common
    dwell without computing interior pixels.
    """
    i = ctx.global_thread_id()

    def body():
        ctx.store(out, ctx.load(idxs, i), ctx.load(vals, i))

    ctx.if_active(i < n, body)


def dwell_host_reference(
    w: int,
    h: int,
    x0: float,
    y0: float,
    dx: float,
    dy: float,
    max_dwell: int = MAX_DWELL_DEFAULT,
) -> np.ndarray:
    """Vectorized host reference for verifying both renderers.

    Iterates only the pixels still running and writes each pixel's dwell
    when it stops: the same arithmetic, in the same order, as running
    every pixel to ``max_dwell`` under a mask.
    """
    xs = np.arange(w, dtype=np.float64) * dx + x0
    ys = np.arange(h, dtype=np.float64) * dy + y0
    dwell = np.zeros(h * w, dtype=np.int64)
    idx = np.arange(h * w)
    cr = np.tile(xs, h)
    ci = np.repeat(ys, w)
    zr = np.zeros(idx.size)
    zi = np.zeros(idx.size)
    for d in range(1, max_dwell + 1):
        if not idx.size:
            break
        zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
        go = (zr * zr + zi * zi) < 4.0
        dwell[idx[~go]] = d
        idx, cr, ci, zr, zi = idx[go], cr[go], ci[go], zr[go], zi[go]
    dwell[idx] = max_dwell  # never escaped
    return dwell.reshape(h, w)
