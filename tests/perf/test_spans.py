"""Span accounting and the outside-in instrumenter of the perf benchmark."""

import os
import sys
import threading
import time

import pytest

import repro.__main__  # noqa: F401 - binds every alias the instrumenter patches
from benchmarks.perf.layers import layer_metrics, total_self_s, wrapper_overhead_s
from benchmarks.perf.spans import (
    SPAN_FIELDS,
    TARGETS,
    Instrumenter,
    SpanRecorder,
    Target,
    wrapper_cost_ns,
)
from repro.core.registry import list_benchmarks


class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


def spans_by_name(recorder):
    return {s[1]: dict(zip(SPAN_FIELDS, s)) for s in recorder.spans}


def test_self_time_excludes_direct_children():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, cpu_clock=clock)

    def leaf():
        clock.t += 30

    def middle():
        clock.t += 10
        w_leaf()
        clock.t += 5

    def outer():
        clock.t += 1
        w_middle()
        clock.t += 2

    w_leaf = rec.wrap(Target("c", "m", "leaf"), leaf, "leaf")
    w_middle = rec.wrap(Target("b", "m", "middle"), middle, "middle")
    w_outer = rec.wrap(Target("a", "m", "outer"), outer, "outer")
    w_outer()
    s = spans_by_name(rec)
    assert (s["leaf"]["dur_ns"], s["leaf"]["self_ns"]) == (30, 30)
    assert (s["middle"]["dur_ns"], s["middle"]["self_ns"]) == (45, 15)
    assert (s["outer"]["dur_ns"], s["outer"]["self_ns"]) == (48, 3)
    # self times partition the outermost span exactly
    assert sum(x["self_ns"] for x in s.values()) == s["outer"]["dur_ns"]


def test_reentrant_call_into_open_layer_is_not_recorded():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, cpu_clock=clock)

    def base():
        clock.t += 7

    def override():
        clock.t += 3
        w_base()          # like JitDispatch -> super().analyze_global

    w_base = rec.wrap(Target("exec", "m", "base"), base, "base")
    w_override = rec.wrap(Target("exec", "m", "override"), override, "override")
    w_override()
    assert [s[1] for s in rec.spans] == ["override"]
    only = spans_by_name(rec)["override"]
    assert only["dur_ns"] == only["self_ns"] == 10
    w_base()              # the guard is released after the outer call
    assert [s[1] for s in rec.spans] == ["override", "base"]


def test_span_recorded_and_stack_unwound_when_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, cpu_clock=clock)

    def boom():
        clock.t += 4
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            w_boom()
        clock.t += 1

    w_boom = rec.wrap(Target("b", "m", "boom"), boom, "boom")
    w_outer = rec.wrap(Target("a", "m", "outer"), outer, "outer")
    w_outer()
    s = spans_by_name(rec)
    assert s["boom"]["self_ns"] == 4
    assert s["outer"]["self_ns"] == 1
    w_boom_again = rec.wrap(Target("b", "m", "boom2"), lambda: None, "boom2")
    w_boom_again()        # layer b is no longer marked open
    assert "boom2" in spans_by_name(rec)


def test_cpu_clock_read_only_for_layers_that_ask():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, cpu_clock=clock)
    rec.wrap(Target("a", "m", "f"), lambda: None, "f")()
    rec.wrap(Target("b", "m", "g", cpu=True), lambda: None, "g")()
    s = spans_by_name(rec)
    assert s["f"]["cpu_ns"] == -1
    assert s["g"]["cpu_ns"] == 0


def test_stacks_are_thread_local():
    rec = SpanRecorder()
    opened, release = threading.Event(), threading.Event()

    def held_open():
        opened.set()
        assert release.wait(5)

    def short():
        time.sleep(0.01)

    w_held = rec.wrap(Target("a", "m", "held"), held_open, "held")
    w_short = rec.wrap(Target("b", "m", "short"), short, "short")
    w_same_layer = rec.wrap(Target("a", "m", "same"), short, "same")
    worker = threading.Thread(target=w_held)
    worker.start()
    assert opened.wait(5)
    # layer "a" is open on the worker, not here: both calls record, and
    # neither is charged to the worker's span as a child
    w_short()
    w_same_layer()
    release.set()
    worker.join(5)
    assert not worker.is_alive()
    s = spans_by_name(rec)
    assert s["held"]["self_ns"] == s["held"]["dur_ns"]
    assert s["short"]["self_ns"] == s["short"]["dur_ns"]
    assert "same" in s
    assert s["held"]["tid"] != s["short"]["tid"]


def test_overhead_is_span_count_times_calibrated_price():
    cost = wrapper_cost_ns(calls=200, repeats=2)
    assert set(cost) == {"span", "cpu_span"}
    assert all(0 <= v < 1e6 for v in cost.values())
    clock = FakeClock()
    rec = SpanRecorder(clock=clock, cpu_clock=clock)
    plain = rec.wrap(Target("a", "m", "f"), lambda: None, "f")
    timed = rec.wrap(Target("b", "m", "g", cpu=True), lambda: None, "g")
    for _ in range(3):
        plain()
    timed()
    events = rec.chrome_trace()["traceEvents"]
    price = {"span": 1000.0, "cpu_span": 5000.0}
    assert wrapper_overhead_s(events, price) == pytest.approx(8e-6)


def _holders(original):
    return {
        (name, attr)
        for name, mod in list(sys.modules.items())
        if name.startswith("repro")
        for attr, value in list(vars(mod).items())
        if value is original
    }


def test_instrumenter_replaces_every_alias_and_restores():
    from repro.exec.dispatch import ReferenceDispatch
    from repro.simt import executor
    from repro.timing import model

    timing_fn = model.estimate_kernel_time
    run_kernel = executor.run_kernel
    analyze = ReferenceDispatch.__dict__["analyze_global"]
    fsync = os.fsync
    timing_holders = _holders(timing_fn)
    kernel_holders = _holders(run_kernel)
    assert len(timing_holders) >= 10
    assert len(kernel_holders) >= 3
    targets = tuple(
        t for t in TARGETS
        if t.qualname in (
            "estimate_kernel_time", "run_kernel",
            "ReferenceDispatch.analyze_global", "fsync",
        )
    )
    with Instrumenter(SpanRecorder(), targets):
        assert not _holders(timing_fn)
        assert not _holders(run_kernel)
        wrapper = model.estimate_kernel_time
        assert wrapper.__wrapped__ is timing_fn
        assert _holders(wrapper) == timing_holders
        assert ReferenceDispatch.__dict__["analyze_global"] is not analyze
        assert os.fsync is not fsync
    assert _holders(timing_fn) == timing_holders
    assert _holders(run_kernel) == kernel_holders
    assert ReferenceDispatch.__dict__["analyze_global"] is analyze
    assert os.fsync is fsync


def test_failed_install_leaves_nothing_replaced():
    from repro.timing import model

    original = model.estimate_kernel_time
    bad = (
        Target("timing", "repro.timing.model", "estimate_kernel_time"),
        Target("x", "repro.timing.model", "KernelTiming.no_such_method"),
    )
    with pytest.raises(LookupError):
        with Instrumenter(SpanRecorder(), bad):
            pass
    assert model.estimate_kernel_time is original
    assert _holders(original)


def test_full_instrumentation_attributes_a_real_run():
    from repro.core.registry import get_benchmark
    from repro.exec import use_backend

    rec = SpanRecorder()
    with Instrumenter(rec), use_backend("reference"):
        t0 = time.perf_counter_ns()
        result = get_benchmark("MemAlign").run(n=4096)
        wall_ns = time.perf_counter_ns() - t0
    assert result.verified
    layers = {s[0] for s in rec.spans}
    assert {"core", "simt", "exec.global", "mem.hierarchy", "timing"} <= layers
    assert "core.MemAlign" in {s[1] for s in rec.spans}
    events = rec.chrome_trace()["traceEvents"]
    assert total_self_s(events) <= wall_ns / 1e9
    m = layer_metrics(events, 1, list_benchmarks())
    assert m["simt.launches"] >= 2
    assert m["mem.hierarchy.calls"] >= m["simt.launches"]
    assert m["mem.hierarchy.warp_records"] > 0
    assert m["core.MemAlign_s"] <= wall_ns / 1e9
    assert m["jit.store.lookups"] == 0
