"""Layer spans recorded from outside the program.

The benchmark attributes host time to the simulator's layers without
touching ``src/``: :class:`Instrumenter` replaces the public functions
of each layer (:data:`TARGETS`) with thin wrappers that open a span on
a :class:`SpanRecorder`, and puts every original back on exit.

A module-level function imported with ``from X import f`` is bound in
several modules, so every module binding that *is* the original is
replaced (``run_kernel`` is bound in four modules,
``estimate_kernel_time`` in twelve); an import that runs later, inside
a function, binds the wrapper from the defining module.  Methods are
replaced on each class that defines them.

Accounting rules:

* a span's *self* time is its duration minus the time of the spans it
  directly encloses, so the self times of one thread never overlap and
  add up to at most that thread's wall time;
* a call into a layer that already has an open span on the same thread
  (``JitDispatch.analyze_global`` -> ``super().analyze_global``, a
  device-side child ``run_kernel``) runs unrecorded, so it is neither
  counted nor timed twice;
* span stacks are thread-local, because the serve daemon executes
  requests on worker threads while HTTP handler threads admit them;
* *wait* is duration minus thread CPU time (I/O, locks, the GIL), and
  is measured only for layers that ask for it, because reading the
  thread clock costs a system call.

Spans stay in memory as tuples and are written once, at exit, as a
Chrome trace (:meth:`SpanRecorder.chrome_trace`).

What tracing costs is estimated inside the traced process itself:
:func:`wrapper_cost_ns` times a wrapped no-op before the command runs,
and the cost of a run is that per-span price times its span count.
Comparing a traced with an untraced process cannot resolve a cost this
small, because the host's speed drifts more between two processes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.registry import ALL_BENCHMARKS

#: span tuple fields, in order (see SpanRecorder.spans)
SPAN_FIELDS = (
    "layer", "name", "tid", "start_ns", "dur_ns", "self_ns", "cpu_ns",
    "note", "label",
)


def _entry_id(args: tuple) -> str | None:
    """Request id of the first argument that is a serve queue entry."""
    for arg in args[:3]:
        if hasattr(arg, "request") and hasattr(arg, "id"):
            return str(arg.id)
    return None


def _warp_records(args: tuple, result: Any) -> int:
    """Access records times window warps of a ``resolve_traffic`` call."""
    trace = args[0]
    return len(trace.records) * int(trace.window_warps)


def _hit(args: tuple, result: Any) -> int:
    return 0 if result is None else 1


@dataclass(frozen=True)
class Target:
    """One public function of one layer, wrapped from outside."""

    layer: str                  #: metric prefix, and re-entrancy unit
    module: str                 #: defining module
    qualname: str               #: ``func`` or ``Class.method``
    cpu: bool = False           #: also read the thread CPU clock (wait)
    #: ``note(args, result) -> number`` summed per layer and function
    note: Callable[[tuple, Any], float] | None = None
    #: ``label(args) -> str`` attached to the span (a request id)
    label: Callable[[tuple], str | None] | None = None


#: every wrapped function, grouped by the layer it is charged to
TARGETS: tuple[Target, ...] = (
    *(Target("core", cls.__module__, f"{cls.__qualname__}.run")
      for cls in ALL_BENCHMARKS),
    Target("simt", "repro.simt.executor", "run_kernel"),
    Target("exec.global", "repro.exec.dispatch", "ReferenceDispatch.analyze_global"),
    Target("exec.global", "repro.exec.dispatch", "FastDispatch.analyze_global"),
    Target("exec.global", "repro.jit.dispatch", "JitDispatch.analyze_global"),
    Target("exec.shared", "repro.exec.dispatch", "ReferenceDispatch.analyze_shared"),
    Target("exec.shared", "repro.exec.dispatch", "FastDispatch.analyze_shared"),
    Target("exec.shared", "repro.jit.dispatch", "JitDispatch.analyze_shared"),
    Target("mem.hierarchy", "repro.mem.hierarchy", "resolve_traffic",
           note=_warp_records),
    Target("timing", "repro.timing.model", "estimate_kernel_time"),
    Target("host.engine", "repro.host.engine", "DeviceEngine.run_until_idle"),
    Target("jit.launch", "repro.jit.dispatch", "JitDispatch.begin_launch"),
    Target("jit.launch", "repro.jit.dispatch", "JitDispatch.end_launch"),
    Target("jit.store", "repro.jit.store", "ArtifactStore.lookup", note=_hit),
    Target("jit.store", "repro.jit.store", "ArtifactStore.put"),
    Target("jit.codegen", "repro.jit.codegen", "generate_source"),
    Target("jit.codegen", "repro.jit.codegen", "compile_artifact"),
    Target("sched.cache", "repro.sched.cache", "ResultCache.key_for", cpu=True),
    Target("sched.cache", "repro.sched.cache", "ResultCache.get", cpu=True,
           note=_hit),
    Target("sched.cache", "repro.sched.cache", "ResultCache.put", cpu=True),
    Target("resilience.journal", "repro.resilience.journal",
           "RunJournal.record", cpu=True),
    Target("resilience.lease", "repro.resilience.lease", "LeaseDir.acquire"),
    Target("resilience.lease", "repro.resilience.lease", "LeaseDir.release"),
    Target("serve.admit", "repro.serve.server", "ServeDaemon.admit"),
    Target("serve.queue", "repro.serve.queue", "DurableQueue.submit", cpu=True),
    Target("serve.queue", "repro.serve.queue", "DurableQueue.complete",
           cpu=True, label=_entry_id),
    Target("serve.queue", "repro.serve.queue", "DurableQueue.put_result",
           cpu=True),
    Target("serve.queue", "repro.serve.queue", "DurableQueue.get_result",
           cpu=True),
    Target("serve.execute", "repro.serve.executor", "execute_request",
           label=_entry_id),
    Target("prof.render", "repro.prof.metrics", "render_metrics"),
    Target("os.fsync", "os", "fsync"),
    Target("os.replace", "os", "replace"),
)


class SpanRecorder:
    """Thread-safe in-memory span log with self-time accounting.

    ``spans`` holds one tuple per recorded call, fields as in
    :data:`SPAN_FIELDS`; ``cpu_ns`` is -1 where the thread clock was
    not read.  Clocks are injectable for tests.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.thread_time_ns,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[tuple] = []
        self._local = threading.local()

    def _frames(self) -> tuple[list, set]:
        local = self._local
        try:
            return local.stack, local.open
        except AttributeError:
            local.stack, local.open = [], set()
            return local.stack, local.open

    def wrap(self, target: Target, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span per outermost call of ``fn``."""
        layer, want_cpu = target.layer, target.cpu
        note, label = target.note, target.label
        clock, cpu_clock = self.clock, self.cpu_clock
        frames, spans = self._frames, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, open_layers = frames()
            if layer in open_layers:
                return fn(*args, **kwargs)
            open_layers.add(layer)
            child = [0]
            stack.append(child)
            cpu0 = cpu_clock() if want_cpu else 0
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                cpu = cpu_clock() - cpu0 if want_cpu else -1
                stack.pop()
                open_layers.discard(layer)
                if stack:
                    stack[-1][0] += dur
                spans.append((
                    layer, name, threading.get_ident(), t0, dur,
                    dur - child[0], cpu,
                    note(args, result) if note is not None else 0,
                    label(args) if label is not None else None,
                ))

        return wrapper

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as a Chrome trace-event document (times in µs)."""
        pid = os.getpid()
        events = []
        for layer, name, tid, start, dur, self_ns, cpu, note, label in self.spans:
            args: dict[str, Any] = {"self_us": self_ns / 1e3}
            if cpu >= 0:
                args["cpu_us"] = cpu / 1e3
            if note:
                args["note"] = note
            if label is not None:
                args["id"] = label
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid,
                "tid": tid, "ts": start / 1e3, "dur": dur / 1e3,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def wrapper_cost_ns(calls: int = 1000, repeats: int = 3) -> dict[str, float]:
    """What one recorded span adds to a call, in ns: ``span`` without
    and ``cpu_span`` with the thread clock.

    Times ``calls`` calls of a wrapped no-op against as many bare calls
    on a scratch recorder and keeps the fastest of ``repeats`` tries.
    """
    def noop() -> None:
        return None

    cost = {}
    for key, cpu in (("span", False), ("cpu_span", True)):
        wrapped = SpanRecorder().wrap(
            Target("calibration", __name__, "noop", cpu=cpu), noop, "noop"
        )
        tries = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            t2 = time.perf_counter_ns()
            tries.append(((t1 - t0) - (t2 - t1)) / calls)
        cost[key] = max(0.0, min(tries))
    return cost


def _resolve(target: Target) -> tuple[Any, str, Callable]:
    """(owner, attribute, original) for a target; imports its module."""
    module = importlib.import_module(target.module)
    if "." in target.qualname:
        cls_name, attr = target.qualname.split(".")
        owner = getattr(module, cls_name)
        if attr not in vars(owner):
            raise LookupError(f"{target.qualname} is not defined on {cls_name}")
        return owner, attr, vars(owner)[attr]
    return module, target.qualname, getattr(module, target.qualname)


class Instrumenter:
    """Install span wrappers over ``targets``; restore every binding on exit.

    Import the program (and any module that binds a target by name)
    before entering, so every alias exists to be replaced.
    """

    def __init__(
        self, recorder: SpanRecorder, targets: tuple[Target, ...] = TARGETS
    ) -> None:
        self.recorder = recorder
        self.targets = targets
        self.replaced: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumenter":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self, target: Target) -> None:
        owner, attr, original = _resolve(target)
        name = f"core.{owner.name}" if target.layer == "core" else target.qualname
        wrapper = self.recorder.wrap(target, original, name)
        self._set(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self.replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)
