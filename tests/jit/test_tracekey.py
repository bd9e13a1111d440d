"""Trace-key identity: stable where it must be, sensitive where it must be."""

import numpy as np
import pytest

from repro.arch.presets import CARINA, FORNAX
from repro.host.runtime import CudaLite
from repro.jit import Untraceable, launch_key
from repro.jit.tracekey import kernel_source
from repro.simt.dim3 import Dim3
from repro.simt.kernel import kernel


@kernel
def touch(ctx, x, n):
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(x, i, ctx.load(x, i) + 1.0))


@kernel
def touch_twin(ctx, x, n):
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(x, i, ctx.load(x, i) + 2.0))


@pytest.fixture
def rt():
    return CudaLite(CARINA)


def _key(rt, kdef=touch, grid=4, block=128, gpu=None, args=None):
    x = args if args is not None else (rt.to_device(np.zeros(512, np.float32)), 512)
    return launch_key(kdef, Dim3(grid), Dim3(block), gpu or CARINA.gpu, x)


class TestStability:
    def test_deterministic(self, rt):
        x = rt.to_device(np.zeros(512, np.float32))
        assert _key(rt, args=(x, 512)) == _key(rt, args=(x, 512))

    def test_data_contents_not_keyed(self, rt):
        """Rewriting a buffer in place must NOT change the key.

        Contents are guarded at replay time, not keyed — this is what
        lets warm sweeps reuse artifacts across data refills.
        """
        x = rt.to_device(np.zeros(512, np.float32))
        before = _key(rt, args=(x, 512))
        x.fill_from(np.ones(512, np.float32))
        assert _key(rt, args=(x, 512)) == before

    def test_same_placement_same_key_across_runtimes(self):
        """The deterministic allocator repeats addresses across runs."""
        keys = []
        for _ in range(2):
            rt = CudaLite(CARINA)
            x = rt.to_device(np.zeros(512, np.float32))
            keys.append(_key(rt, args=(x, 512)))
        assert keys[0] == keys[1]


class TestSensitivity:
    def test_kernel_identity(self, rt):
        assert _key(rt, kdef=touch) != _key(rt, kdef=touch_twin)

    def test_geometry(self, rt):
        assert _key(rt, grid=4) != _key(rt, grid=8)
        assert _key(rt, block=128) != _key(rt, block=64)

    def test_gpu_spec(self, rt):
        assert _key(rt, gpu=CARINA.gpu) != _key(rt, gpu=FORNAX.gpu)

    def test_scalar_args(self, rt):
        x = rt.to_device(np.zeros(512, np.float32))
        assert _key(rt, args=(x, 512)) != _key(rt, args=(x, 256))

    def test_scalar_type_distinguished(self, rt):
        """1 and 1.0 and np.int32(1) are different specializations."""
        x = rt.to_device(np.zeros(512, np.float32))
        keys = {
            _key(rt, args=(x, 1)),
            _key(rt, args=(x, 1.0)),
            _key(rt, args=(x, np.int32(1))),
        }
        assert len(keys) == 3

    def test_buffer_placement(self, rt):
        a = rt.to_device(np.zeros(512, np.float32))
        b = rt.to_device(np.zeros(512, np.float32))
        assert _key(rt, args=(a, 512)) != _key(rt, args=(b, 512))

    def test_model(self, rt, monkeypatch):
        x = rt.to_device(np.zeros(512, np.float32))
        before = _key(rt, args=(x, 512))
        monkeypatch.setattr("repro.jit.tracekey.model_digest", lambda: "0" * 64)
        assert _key(rt, args=(x, 512)) != before

    def test_buffer_dtype_and_shape(self, rt):
        a = rt.to_device(np.zeros(512, np.float32))
        k32 = _key(rt, args=(a, 512))
        rt2 = CudaLite(CARINA)
        b = rt2.to_device(np.zeros(512, np.float64))
        assert _key(rt2, args=(b, 512)) != k32


class TestUntraceable:
    def test_opaque_argument_raises(self, rt):
        with pytest.raises(Untraceable):
            _key(rt, args=(object(),))

    def test_ndarray_host_argument_raises(self, rt):
        # host arrays have no device placement to sign
        with pytest.raises(Untraceable):
            _key(rt, args=(np.zeros(4),))


def test_kernel_source_memoized():
    assert kernel_source(touch) is kernel_source(touch)
    assert "global_thread_id" in kernel_source(touch)
