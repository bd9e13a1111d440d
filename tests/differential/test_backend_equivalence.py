"""Differential suite: the jit backend must be bit-identical to reference.

Every registered microbenchmark runs at test scale on the reference
oracle and in three columns, and the :class:`BenchResult` documents are
compared field-for-field — the 14x3 matrix:

* ``fast`` — the bare analysis jit records on (:class:`FastDispatch`,
  not a selectable backend, whose methods are the oracle's), applied to
  every launch with nothing stored;
* ``jit`` — jit over an empty private artifact store (each new launch
  key records on that analysis, repeats replay);
* ``jit-warm`` — the same store primed by one run, then reopened as a
  fresh process would (launches replay).

Representative kernels are additionally launched per column to assert
equality of the *raw microarchitectural counters* (the quantities jit
recomputes or replays) and of each launch's resolved cache traffic, to
check sanitizer findings are untouched by the backend, and to prove that
recording and replay actually engage rather than silently falling back
everywhere.

Every reference launch's :class:`TrafficReport` is also pinned by digest
(``traffic_golden.json``), so a drift in the L1/L2 model fails here and
not only in the host-time benchmark's row digests.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.arch.presets import CARINA
from repro.core.registry import ALL_BENCHMARKS, get_benchmark
from repro.exec import FastDispatch, use_backend
from repro.host import runtime
from repro.host.runtime import CudaLite
from repro.jit import default_store, reset_jit_store
from repro.sanitize.core import Sanitizer
from repro.simt.kernel import kernel
from repro.timing.model import estimate_kernel_time

#: the matrix columns, each with how many runs it takes over one private
#: store: the bare analysis jit records on (no store), jit over an empty
#: store, and jit over the same store primed by one run
COLUMNS = {"fast": 1, "jit": 1, "jit-warm": 2}

#: small parameters so the 14x3 differential run stays in test time
#: (mirrors tests/core/test_suite.py FAST_OVERRIDES)
SCALED = {
    "WarpDivRedux": dict(n=1 << 16),
    "DynParallel": dict(size=128, max_dwell=64),
    "Conkernels": dict(rounds=16),
    "TaskGraph": dict(chain_len=4, iterations=5, n=2048),
    "Shmem": dict(n=64),
    "CoMem": dict(n=1 << 19),
    "MemAlign": dict(n=1 << 18),
    "GSOverlap": dict(n=1 << 18),
    "Shuffle": dict(n=1 << 18),
    "BankRedux": dict(n=1 << 16),
    "HDOverlap": dict(n=1 << 18),
    "ReadOnlyMem": dict(n=256),
    "UniMem": dict(n=1 << 20, stride=1 << 14),
    "MiniTransfer": dict(n=256, nnz=1024),
}

#: sha256 of every reference launch's ``TrafficReport.as_dict()`` per
#: benchmark at ``SCALED`` sizes, as canonical JSON (floats in ``repr``,
#: so every bit counts)
TRAFFIC_GOLDEN = json.loads(
    (Path(__file__).with_name("traffic_golden.json")).read_text()
)

#: reference results and traffic digests, computed once per benchmark and
#: shared across the per-backend comparisons (the expensive half of every
#: matrix cell)
_reference_memo: dict[str, tuple[dict, str]] = {}


def _traffic(launches) -> list[dict]:
    """Each ``(stats, gpu)`` launch's resolved traffic, in launch order."""
    return [estimate_kernel_time(s, gpu).traffic.as_dict() for s, gpu in launches]


def _run_reference(name: str) -> tuple[dict, str]:
    """The reference result document and its launches' traffic digest."""
    cached = _reference_memo.get(name)
    if cached is None:
        launches = []
        real_launch = CudaLite.launch

        def launch(rt, *args, **kwargs):
            stats = real_launch(rt, *args, **kwargs)
            launches.append((stats, rt.gpu))
            return stats

        with use_backend("reference"), mock.patch.object(CudaLite, "launch", launch):
            doc = get_benchmark(name).run(**SCALED.get(name, {})).as_dict()
        traffic = json.dumps(_traffic(launches), sort_keys=True)
        cached = (doc, hashlib.sha256(traffic.encode()).hexdigest())
        _reference_memo[name] = cached
    return cached


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    """An empty jit store over a private directory, for one test."""
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path / "jit"))
    reset_jit_store()
    yield
    reset_jit_store()


def _enter_column(column, monkeypatch) -> str:
    """Set up one matrix column and return the backend to select: the
    ``fast`` column builds every later runtime on a bare
    :class:`FastDispatch`, so each launch is analyzed and none is stored."""
    if column == "fast":
        monkeypatch.setattr(
            runtime, "make_dispatcher", lambda name=None: FastDispatch()
        )
        return "reference"
    return "jit"


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("cls", ALL_BENCHMARKS, ids=lambda c: c.name)
def test_benchmark_identical_across_backends(cls, column, private_store, monkeypatch):
    ref = _run_reference(cls.name)[0]
    backend = _enter_column(column, monkeypatch)
    for _ in range(COLUMNS[column]):
        reset_jit_store()  # a fresh process over the same directory
        with use_backend(backend):
            alt = get_benchmark(cls.name).run(**SCALED.get(cls.name, {}))
    assert ref == alt.as_dict(), f"{cls.name}: {column} diverged from reference"
    misses = default_store().stats()["misses"]
    assert column != "jit-warm" or misses == 0, f"{cls.name}: primed store missed"


@pytest.mark.parametrize("cls", ALL_BENCHMARKS, ids=lambda c: c.name)
def test_reference_traffic_matches_golden(cls):
    assert _run_reference(cls.name)[1] == TRAFFIC_GOLDEN[cls.name], (
        f"{cls.name}: resolved cache traffic drifted from traffic_golden.json"
    )


# ---------------------------------------------------------------------------
# kernel-level counter equality


@kernel
def stream_copy(ctx, x, y, n):
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(y, i, ctx.load(x, i)))


@kernel
def strided_touch(ctx, x, n, stride):
    i = ctx.global_thread_id() * stride
    ctx.if_active(i < n, lambda: ctx.store(x, i, ctx.load(x, i) + 1.0))


@kernel
def shared_column(ctx, x, width):
    tid = ctx.thread_idx_x
    tile = ctx.shared_array((width * 32,), np.float32)
    tile.store(tid * width, ctx.load(x, ctx.global_thread_id()))
    ctx.syncthreads()
    ctx.store(x, ctx.global_thread_id(), tile.load(tid * width))


def _launch_all(backend, *, repeat=1):
    rt = CudaLite(CARINA, backend=backend)
    n = 1 << 14
    x = rt.to_device(np.arange(n, dtype=np.float32))
    y = rt.malloc(n, np.float32)
    for _ in range(repeat):
        rt.launch(stream_copy, n // 256, 256, x, y, n)
        rt.launch(strided_touch, n // 256, 256, x, n, 32)
        rt.launch(shared_column, 1, 32, x, 8)
    counters = [stats.counters() for stats, _ in rt.kernel_log]
    return rt, counters


class TestKernelCounters:
    @pytest.mark.parametrize("column", COLUMNS)
    def test_counters_identical(self, private_store, monkeypatch, column):
        repeat = COLUMNS[column]
        ref_rt, ref = _launch_all("reference", repeat=repeat)
        rt, alt = _launch_all(_enter_column(column, monkeypatch), repeat=repeat)
        assert ref == alt
        traffic = [_traffic((s, r.gpu) for s, _ in r.kernel_log) for r in (ref_rt, rt)]
        assert traffic[0] == traffic[1]
        assert column != "fast" or rt.dispatch.counters.shared_reference > 0

    def test_fast_path_engages(self, private_store):
        rt, _ = _launch_all("jit")  # empty store: every launch records
        c = rt.dispatch.counters
        assert c.jit_traced == 3 and c.jit_replayed == 0
        # every recorded access is analyzed by the oracle
        assert c.global_reference > 0 and c.shared_reference > 0

    def test_jit_replay_engages(self, private_store):
        # round 1 records, round 2 replays
        rt, counters = _launch_all("jit", repeat=2)
        c = rt.dispatch.counters
        assert c.jit_traced == 3 and c.jit_compiled == 3
        assert c.jit_replayed == 3
        assert c.global_jit > 0 and c.shared_jit > 0
        assert c.jit_bailouts == 0
        # and the replayed rounds report the same kernel counters
        assert counters[:3] == counters[3:]

    def test_reference_backend_never_uses_fast_path(self):
        rt, _ = _launch_all("reference")
        c = rt.dispatch.counters
        assert c.global_reference > 0 and c.shared_reference > 0


# ---------------------------------------------------------------------------
# sanitizer findings are backend-invariant


@kernel
def oob_tail_store(ctx, out, n):
    # every thread past n-8 writes one element past the logical end
    i = ctx.global_thread_id()
    ctx.if_active(i >= n - 8, lambda: ctx.store(out, n, 1.0))
    ctx.if_active(i < n - 8, lambda: ctx.store(out, i, 2.0))


def _findings(backend):
    san = Sanitizer("memcheck")
    rt = CudaLite(CARINA, sanitize=san, backend=backend)
    out = rt.malloc(1024 + 32, np.float32)
    out.logical_size = 1024
    rt.launch(oob_tail_store, 8, 128, out, 1024)
    rt.launch(oob_tail_store, 8, 128, out, 1024)  # jit replay round
    return san.report().findings


class TestSanitizeFindingsEquivalence:
    def test_findings_identical(self, private_store):
        assert _findings("reference") == _findings("jit")


if __name__ == "__main__":
    # re-record traffic_golden.json after a deliberate cache-model change
    print(json.dumps(
        {cls.name: _run_reference(cls.name)[1] for cls in ALL_BENCHMARKS}, indent=2
    ))
