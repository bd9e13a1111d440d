"""Mandelbrot kernels: dwell correctness and divergence behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynparallel import MandelView, mariani_silver
from repro.host.runtime import CudaLite
from repro.arch.presets import RTX3080_SYSTEM
from repro.kernels.mandelbrot import (
    dwell_host_reference,
    fill_indexed,
    mandel_escape,
    mandel_points,
)

VIEW = MandelView()


def escape_image(rt, size, max_dwell=64):
    w = h = size
    dx, dy = VIEW.steps(w, h)
    out = rt.malloc(w * h, np.int64)
    stats = rt.launch(
        mandel_escape,
        ((w + 15) // 16, (h + 15) // 16),
        (16, 16),
        out, w, h, VIEW.x0, VIEW.y0, dx, dy, max_dwell,
    )
    rt.synchronize()
    return stats, out.to_host().reshape(h, w)


class TestEscape:
    def test_matches_host_reference(self, rt):
        _, img = escape_image(rt, 64)
        ref = dwell_host_reference(64, 64, VIEW.x0, VIEW.y0, *VIEW.steps(64, 64), 64)
        assert np.array_equal(img, ref)

    def test_interior_reaches_max_dwell(self, rt):
        _, img = escape_image(rt, 64, max_dwell=32)
        # (0,0) is inside the set: dwell = max
        ref = dwell_host_reference(64, 64, VIEW.x0, VIEW.y0, *VIEW.steps(64, 64), 32)
        assert img.max() == 32
        assert np.array_equal(img, ref)

    def test_divergence_recorded(self, rt):
        stats, _ = escape_image(rt, 64)
        assert stats.warp_execution_efficiency < 1.0

    def test_non_square_grid_guard(self, rt):
        # width not a multiple of block: masked lanes must not write
        w, h = 50, 30
        dx, dy = VIEW.span / w, VIEW.span / h
        out = rt.malloc(w * h, np.int64)
        rt.launch(
            mandel_escape, ((w + 15) // 16, (h + 15) // 16), (16, 16),
            out, w, h, VIEW.x0, VIEW.y0, dx, dy, 32,
        )
        rt.synchronize()
        ref = dwell_host_reference(w, h, VIEW.x0, VIEW.y0, dx, dy, 32)
        assert np.array_equal(out.to_host().reshape(h, w), ref)


class TestPoints:
    def test_matches_escape(self, rt):
        size = 32
        dx, dy = VIEW.steps(size, size)
        ref = dwell_host_reference(size, size, VIEW.x0, VIEW.y0, dx, dy, 64)
        yy, xx = np.mgrid[0:size, 0:size]
        n = size * size
        xs = rt.to_device(xx.ravel().astype(np.int64))
        ys = rt.to_device(yy.ravel().astype(np.int64))
        dd = rt.malloc(n, np.int64)
        rt.launch(
            mandel_points, (n + 255) // 256, 256,
            xs, ys, dd, n, VIEW.x0, VIEW.y0, dx, dy, 64,
        )
        rt.synchronize()
        assert np.array_equal(dd.to_host().reshape(size, size), ref)


class TestFillIndexed:
    def test_scatter(self, rt):
        out = rt.malloc(64, np.int64)
        idxs = rt.to_device(np.array([1, 5, 9], dtype=np.int64))
        vals = rt.to_device(np.array([10, 50, 90], dtype=np.int64))
        rt.launch(fill_indexed, 1, 32, out, idxs, vals, 3)
        rt.synchronize()
        h = out.to_host()
        assert h[1] == 10 and h[5] == 50 and h[9] == 90
        assert h.sum() == 150


class TestMarianiSilver:
    def test_image_matches_escape(self):
        rt = CudaLite(RTX3080_SYSTEM)
        size = 128
        out = rt.malloc(size * size, np.int64)
        info = mariani_silver(rt, out, size, size, max_dwell=64)
        rt.synchronize()
        ref = dwell_host_reference(
            size, size, VIEW.x0, VIEW.y0, *VIEW.steps(size, size), 64
        )
        img = out.to_host().reshape(size, size)
        assert (img == ref).mean() > 0.99
        assert info["device_launches"] > 0

    def test_computes_fewer_pixels_at_scale(self):
        rt = CudaLite(RTX3080_SYSTEM)
        size = 256
        out = rt.malloc(size * size, np.int64)
        info = mariani_silver(rt, out, size, size, max_dwell=64, min_size=16)
        rt.synchronize()
        assert info["pixels_computed"] < size * size
        assert info["pixels_filled"] > 0


def brute_force_dwell(w, h, x0, y0, dx, dy, max_dwell):
    """Every pixel iterated under a live mask until all stop: the oracle
    for :func:`dwell_host_reference`."""
    xs = np.arange(w, dtype=np.float64) * dx + x0
    ys = np.arange(h, dtype=np.float64) * dy + y0
    cr = np.broadcast_to(xs, (h, w)).copy()
    ci = np.broadcast_to(ys[:, None], (h, w)).copy()
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    dwell = np.zeros((h, w), dtype=np.int64)
    live = np.ones((h, w), dtype=bool)
    for _ in range(max_dwell):
        if not live.any():
            break
        zr2 = zr * zr
        zi2 = zi * zi
        nzi = 2.0 * zr * zi + ci
        nzr = zr2 - zi2 + cr
        zr = np.where(live, nzr, zr)
        zi = np.where(live, nzi, zi)
        dwell[live] += 1
        live &= (zr * zr + zi * zi) < 4.0
        live &= dwell < max_dwell
    return dwell


class TestHostReference:
    def test_known_points(self):
        # c = 0 never escapes; c = 2 escapes immediately
        img = dwell_host_reference(2, 1, 0.0, 0.0, 2.0, 1.0, max_dwell=50)
        assert img[0, 0] == 50   # c = 0
        assert img[0, 1] <= 2    # c = 2

    def test_deterministic(self):
        a = dwell_host_reference(16, 16, -2, -1.5, 0.2, 0.2, 32)
        b = dwell_host_reference(16, 16, -2, -1.5, 0.2, 0.2, 32)
        assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        x0=st.floats(-2.5, 1.0),
        y0=st.floats(-1.5, 1.5),
        span=st.floats(1e-6, 3.0),
        max_dwell=st.integers(0, 600),
    )
    def test_equals_brute_force(self, w, h, x0, y0, span, max_dwell):
        args = (w, h, x0, y0, span / w, span / h, max_dwell)
        got = dwell_host_reference(*args)
        want = brute_force_dwell(*args)
        assert got.dtype == want.dtype and got.shape == (h, w)
        assert np.array_equal(got, want)
