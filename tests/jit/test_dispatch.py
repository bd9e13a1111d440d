"""JitDispatch life-cycle: record, replay, bail out, degrade safely."""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.jit.dispatch as jit_dispatch
from repro.arch.presets import CARINA
from repro.host.runtime import CudaLite
from repro.jit import default_store, reset_jit_store
from repro.sched.cache import ResultCache
from repro.simt.kernel import kernel


@pytest.fixture
def jit_env(tmp_path, monkeypatch):
    """Fresh global store over a private disk directory."""
    monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path / "jit"))
    reset_jit_store()
    yield
    reset_jit_store()


@kernel
def saxpy(ctx, x, y, a, n):
    i = ctx.global_thread_id()
    ctx.if_active(
        i < n, lambda: ctx.store(y, i, ctx.load(y, i) + a * ctx.load(x, i))
    )


@kernel
def gather(ctx, out, x, idx, n):
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(out, i, ctx.load(x, ctx.load(idx, i))))


@kernel
def dwell(ctx, x, steps, n):
    # per-lane data-dependent trip count: the number of global accesses
    # this launch issues depends on device *contents*, not the key
    i = ctx.global_thread_id()
    s = ctx.load(steps, i)
    cnt = ctx.zeros(np.int64)

    def body(i, s, cnt):
        ctx.store(x, i, ctx.load(x, i) + 1.0)
        cnt = ctx.masked(cnt, cnt + 1)
        return cnt < s, i, s, cnt

    ctx.while_active(cnt < s, body, i, s, cnt)


@kernel
def exploding(ctx, x, n):
    ctx.load(x, ctx.global_thread_id())
    raise RuntimeError("injected kernel fault")


def _saxpy_rt(n=1 << 12):
    rt = CudaLite(CARINA, backend="jit")
    x = rt.to_device(np.arange(n, dtype=np.float32))
    y = rt.to_device(np.ones(n, dtype=np.float32))
    return rt, x, y, n


class TestRecordReplay:
    def test_second_launch_replays(self, jit_env):
        rt, x, y, n = _saxpy_rt()
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        c = rt.dispatch.counters
        assert (c.jit_traced, c.jit_compiled, c.jit_replayed) == (1, 1, 0)
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        assert rt.dispatch.counters.jit_replayed == 1
        assert rt.dispatch.counters.global_jit > 0
        assert rt.dispatch.counters.jit_bailouts == 0

    def test_replay_result_identical(self, jit_env):
        host = np.arange(1 << 12, dtype=np.float32)
        outs = []
        for _ in range(2):  # second process-alike run replays from disk
            reset_jit_store()
            rt = CudaLite(CARINA, backend="jit")
            x = rt.to_device(host)
            y = rt.to_device(np.ones_like(host))
            rt.launch(saxpy, len(host) // 256, 256, x, y, 2.0, len(host))
            outs.append(y.to_host().tobytes())
        assert outs[0] == outs[1]

    def test_cross_runtime_replay_via_store(self, jit_env):
        """Deterministic allocation ⇒ a fresh runtime hits the artifact."""
        rt1, x1, y1, n = _saxpy_rt()
        rt1.launch(saxpy, n // 256, 256, x1, y1, 2.0, n)
        rt2, x2, y2, n = _saxpy_rt()
        rt2.launch(saxpy, n // 256, 256, x2, y2, 2.0, n)
        c2 = rt2.dispatch.counters
        assert c2.jit_traced == 0 and c2.jit_replayed == 1

    def test_kernel_counters_equal_under_replay(self, jit_env):
        rt, x, y, n = _saxpy_rt()
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        first, second = (stats.counters() for stats, _ in rt.kernel_log)
        assert first == second


class TestBailout:
    def test_guard_fail_degrades_and_poisons(self, jit_env):
        n = 1 << 10
        rt = CudaLite(CARINA, backend="jit")
        out = rt.malloc(n, np.float32)
        x = rt.to_device(np.arange(n, dtype=np.float32))
        idx = rt.to_device(np.arange(n, dtype=np.int64))
        rt.launch(gather, n // 128, 128, out, x, idx, n)  # record
        # same key (in-place rewrite), different address stream
        idx.fill_from(np.arange(n, dtype=np.int64)[::-1].copy())
        rt.launch(gather, n // 128, 128, out, x, idx, n)  # replay -> bail
        c = rt.dispatch.counters
        assert c.jit_replayed == 1 and c.jit_bailouts == 1
        # the bailed launch still computed the right thing on reference
        assert np.array_equal(
            out.to_host(), x.to_host()[::-1]
        )
        # third launch goes straight to reference: key is poisoned
        rt.launch(gather, n // 128, 128, out, x, idx, n)
        c = rt.dispatch.counters
        assert c.jit_replayed == 1 and c.jit_traced == 1
        assert default_store().stats()["poisoned"] == 1

    def test_trace_exhaustion_bails(self, jit_env):
        n = 256
        rt = CudaLite(CARINA, backend="jit")
        x = rt.to_device(np.zeros(n, np.float32))
        steps = rt.to_device(np.full(n, 2, np.int64))
        rt.launch(dwell, 2, 128, x, steps, n)  # record: 2 iterations
        steps.fill_from(np.full(n, 4, np.int64))  # same key, longer loop
        rt.launch(dwell, 2, 128, x, steps, n)
        c = rt.dispatch.counters
        assert c.jit_bailouts == 1
        # every lane still dwelled the full 4 extra steps
        assert np.all(x.to_host() == 6.0)

    def test_bailout_emits_telemetry(self, jit_env):
        events = []

        class Hub:
            def wants(self, kind):
                return True

            def emit(self, kind, name, **fields):
                events.append((kind, name, fields))

        n = 1 << 10
        rt = CudaLite(CARINA, backend="jit")
        rt.dispatch.hub = Hub()
        out = rt.malloc(n, np.float32)
        x = rt.to_device(np.arange(n, dtype=np.float32))
        idx = rt.to_device(np.arange(n, dtype=np.int64))
        rt.launch(gather, n // 128, 128, out, x, idx, n)
        idx.fill_from(np.arange(n, dtype=np.int64)[::-1].copy())
        rt.launch(gather, n // 128, 128, out, x, idx, n)
        assert len(events) == 1
        kind, name, fields = events[0]
        assert kind == "jit" and "gather" in name
        assert fields["reason"] == "global-guard"
        assert len(fields["key"]) == 12


class TestDegradation:
    def test_untraceable_argument_runs_reference(self, jit_env):
        class Opaque:
            pass

        @kernel
        def with_opaque(ctx, x, blob, n):
            i = ctx.global_thread_id()
            ctx.if_active(i < n, lambda: ctx.store(x, i, 1.0))

        n = 512
        rt = CudaLite(CARINA, backend="jit")
        x = rt.malloc(n, np.float32)
        rt.launch(with_opaque, 2, 256, x, Opaque(), n)
        c = rt.dispatch.counters
        assert c.jit_untraceable == 1 and c.jit_traced == 0
        assert np.all(x.to_host() == 1.0)

    def test_overflow_poisons_instead_of_compiling(self, jit_env, monkeypatch):
        monkeypatch.setattr(jit_dispatch, "MAX_TRACE_EVENTS", 2)
        rt, x, y, n = _saxpy_rt()  # saxpy issues 3 accesses per launch
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        assert rt.dispatch.counters.jit_compiled == 0
        assert default_store().stats()["poisoned"] == 1
        # subsequent launches skip straight to reference — no retrace
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        c = rt.dispatch.counters
        assert c.jit_traced == 1 and c.jit_replayed == 0

    def test_failed_launch_discards_trace_without_poison(self, jit_env):
        n = 512
        rt = CudaLite(CARINA, backend="jit")
        x = rt.to_device(np.zeros(n, np.float32))
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            rt.launch(exploding, 2, 256, x, n)
        stats = default_store().stats()
        assert stats["poisoned"] == 0 and stats["stores"] == 0
        assert rt.dispatch.counters.jit_compiled == 0
        # the launch stack must be balanced after the fault
        assert rt.dispatch._stack == []


def _edit_events(payload, edit):
    doc = json.loads(payload["source"])
    edit(doc["events"][0])
    return {**payload, "source": json.dumps(doc)}


def _v1_python_source(payload, marker):
    # what the parent format stored: Python source the loader exec'd
    source = f"open({str(marker)!r}, 'w').close()\nREPLAY = ()\n"
    return {**payload, "schema": "repro-jit-artifact/1", "source": source}


#: stored entries a fresh process must treat as a miss, never run
UNUSABLE = {
    "v1-python-source": _v1_python_source,
    "invalid-json": lambda p, _: {**p, "source": '{"key": '},
    "wrong-type": lambda p, _: _edit_events(
        p, lambda ev: ev["summary"].update(transactions="4.0")
    ),
    "wrong-kind": lambda p, _: _edit_events(
        p, lambda ev: ev.update(kind="texture")
    ),
}


class TestStoredArtifacts:
    @pytest.mark.parametrize("name", sorted(UNUSABLE))
    def test_unusable_entry_is_retraced_and_overwritten(
        self, jit_env, tmp_path, name
    ):
        rt, x, y, n = _saxpy_rt()
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)  # publishes the entry
        root = Path(default_store().root)
        (path,) = root.glob("??/*.json")
        cache = ResultCache(root)
        good = cache.get(path.stem)
        marker = tmp_path / "executed"
        cache.put(path.stem, UNUSABLE[name](good, marker))

        reset_jit_store()  # a fresh process over the same directory
        rt, x, y, n = _saxpy_rt()
        rt.launch(saxpy, n // 256, 256, x, y, 2.0, n)
        assert not marker.exists(), "stored artifact text was executed"
        c = rt.dispatch.counters
        assert (c.jit_replayed, c.jit_traced, c.jit_compiled) == (0, 1, 1)
        assert cache.get(path.stem) == good
