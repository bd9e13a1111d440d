"""Backend selection and dispatch accounting."""

import numpy as np
import pytest

from repro.common.errors import LaunchConfigError
from repro.exec.dispatch import (
    BACKENDS,
    FastDispatch,
    ReferenceDispatch,
    current_backend_name,
    make_dispatcher,
    use_backend,
)
from repro.mem.coalesce import analyze_access


class TestSelection:
    def test_default_is_reference(self):
        assert current_backend_name() == "reference"

    def test_explicit_wins(self):
        with use_backend("jit"):
            assert current_backend_name("reference") == "reference"

    def test_context_nesting(self):
        with use_backend("jit"):
            assert current_backend_name() == "jit"
            with use_backend("reference"):
                assert current_backend_name() == "reference"
            assert current_backend_name() == "jit"
        assert current_backend_name() == "reference"

    def test_scopes_are_per_thread(self):
        # serve runs each request's use_backend on its own worker thread
        import threading

        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with use_backend("jit"):
                a_in.set()
                b_in.wait(5)
                seen["a"] = current_backend_name()
            a_out.set()

        def thread_b():
            a_in.wait(5)
            with use_backend("reference"):
                b_in.set()
                a_out.wait(5)      # A left its scope first
                seen["b"] = current_backend_name()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"a": "jit", "b": "reference"}

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "jit")
        assert current_backend_name() == "jit"

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "jit")
        with use_backend("reference"):
            assert current_backend_name() == "reference"

    def test_unknown_name_raises(self):
        with pytest.raises(LaunchConfigError):
            current_backend_name("vectorized")
        with pytest.raises(LaunchConfigError):
            current_backend_name("fast")  # retired: jit analyzes on it
        with pytest.raises(LaunchConfigError):
            with use_backend("nope"):
                pass  # pragma: no cover

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nope")
        with pytest.raises(LaunchConfigError):
            current_backend_name()

    def test_make_dispatcher(self):
        from repro.jit.dispatch import JitDispatch

        d = make_dispatcher("reference")
        assert isinstance(d, ReferenceDispatch) and not isinstance(d, FastDispatch)
        assert isinstance(make_dispatcher("jit"), JitDispatch)
        assert issubclass(JitDispatch, FastDispatch)
        with use_backend("jit"):
            assert isinstance(make_dispatcher(), JitDispatch)

    def test_backend_names(self):
        assert BACKENDS == ("reference", "jit")


AFFINE = np.arange(32, dtype=np.int64) * 4
DIVERGENT_MASK = np.array([i % 2 == 0 for i in range(32)])
RAGGED = np.array([0, 4, 8, 12] + [100 * i for i in range(4, 32)], dtype=np.int64)


class TestCounters:
    def test_reference_counts_reference(self):
        d = ReferenceDispatch()
        d.analyze_global(
            AFFINE, None, 4, warp_size=32, transaction_bytes=128, sector_bytes=32
        )
        d.analyze_shared(AFFINE, None, warp_size=32, nbanks=32, bank_bytes=4)
        c = d.counters.as_dict()
        assert c == {"global_reference": 1, "shared_reference": 1}

    def test_fast_counts_fast_on_affine(self):
        d = FastDispatch()
        kwargs = dict(warp_size=32, transaction_bytes=128, sector_bytes=32)
        summary = d.analyze_global(AFFINE, None, 4, **kwargs)
        d.analyze_shared(AFFINE, None, warp_size=32, nbanks=32, bank_bytes=4)
        # every access has one analyzer: the oracle answers it
        assert summary == analyze_access(AFFINE, None, 4, **kwargs)
        assert d.counters.as_dict() == {"global_reference": 1, "shared_reference": 1}

    def test_fast_counts_fallback_on_divergent(self):
        d = FastDispatch()
        kwargs = dict(warp_size=32, transaction_bytes=128, sector_bytes=32)
        summary = d.analyze_global(AFFINE, DIVERGENT_MASK, 4, **kwargs)
        d.analyze_shared(AFFINE, DIVERGENT_MASK, warp_size=32, nbanks=32, bank_bytes=4)
        assert summary == analyze_access(AFFINE, DIVERGENT_MASK, 4, **kwargs)
        assert d.counters.as_dict() == {"global_reference": 1, "shared_reference": 1}

    def test_fallback_result_matches_reference(self):
        fast = FastDispatch()
        ref = ReferenceDispatch()
        kwargs = dict(warp_size=32, transaction_bytes=128, sector_bytes=32)
        assert fast.analyze_global(RAGGED, None, 4, **kwargs) == ref.analyze_global(
            RAGGED, None, 4, **kwargs
        )
