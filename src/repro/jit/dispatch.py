"""The jit dispatcher: record, replay, bail.

:class:`JitDispatch` is the accelerated backend beside the
:class:`~repro.exec.dispatch.ReferenceDispatch` oracle.  It extends
:class:`~repro.exec.dispatch.FastDispatch`, so every access it does not
replay is analyzed by the reference analyzers.  The executor brackets
each launch with :meth:`begin_launch` / :meth:`end_launch`; in between
every ``analyze_global`` / ``analyze_shared`` call is served according
to the launch's mode:

* **record** — first sighting of a trace key: analyze each access while
  recording its guard fingerprint and summary; a completed launch is
  published to the artifact store.
* **replay** — an artifact exists: take its next event, check the guard
  parameters and the linear-time lane fingerprint, and return the
  stored summary without any analysis.
* **analyze** — untraceable launches, poisoned keys, and everything
  after a *bailout* (guard mismatch, event-kind mismatch, trace
  exhaustion): plain analysis, always correct.

A bailout is per launch and per key: the current launch degrades to
analysis mid-flight (every summary already returned passed its guard,
so the launch stays correct), the key is poisoned so later launches
skip straight to analysis, and the event is counted in
:class:`JitCounters` and emitted to the activity hub when one is
attached — the same visibility contract as the scheduler's
divergence-fallback telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec.dispatch import ExecCounters, FastDispatch
from repro.jit.codegen import JitArtifact, TraceEvent, generate_source
from repro.jit.guards import lane_fingerprint
from repro.jit.store import ArtifactStore, default_store
from repro.jit.tracekey import Untraceable, launch_key

__all__ = ["MAX_TRACE_EVENTS", "JitCounters", "JitDispatch"]

#: record-mode event cap: a launch tracing more accesses than this is
#: dominated by unique (likely data-dependent) access sites and would
#: produce a huge artifact with no replay win — poison it instead
MAX_TRACE_EVENTS = 4096


@dataclass
class JitCounters(ExecCounters):
    """Execution counters extended with the jit life-cycle.

    ``global_jit``/``shared_jit`` count accesses answered from an
    artifact; the fields inherited from :class:`ExecCounters` count
    record-mode and post-bailout analyses.
    """

    global_jit: int = 0
    shared_jit: int = 0
    jit_traced: int = 0      #: launches recorded (cold keys)
    jit_compiled: int = 0    #: recorded traces published as artifacts
    jit_replayed: int = 0    #: launches started from an artifact
    jit_bailouts: int = 0    #: replays degraded to analysis mid-launch
    jit_untraceable: int = 0  #: launches with un-keyable arguments


@dataclass
class _LaunchState:
    """Per-launch mode; lives on a stack for dynamic parallelism."""

    mode: str  # "record" | "replay" | "analyze"
    kernel: str
    key: str | None = None
    events: list = field(default_factory=list)
    artifact: JitArtifact | None = None
    cursor: int = 0


class JitDispatch(FastDispatch):
    """Trace-JIT memory-analysis backend (see module docstring)."""

    name = "jit"

    def __init__(self, store: ArtifactStore | None = None) -> None:
        self.counters = JitCounters()
        self.store = store if store is not None else default_store()
        self.hub = None
        self._stack: list[_LaunchState] = []

    # ------------------------------------------------------------------
    # launch bracketing (called by repro.simt.executor.run_kernel)
    # ------------------------------------------------------------------
    def begin_launch(self, kdef, grid, block, gpu, args) -> None:
        """Resolve the launch's trace key and pick its mode."""
        try:
            key = launch_key(kdef, grid, block, gpu, args)
        except Untraceable:
            self.counters.jit_untraceable += 1
            self._stack.append(_LaunchState(mode="analyze", kernel=kdef.name))
            return
        artifact = self.store.lookup(key)
        if artifact is not None:
            self.counters.jit_replayed += 1
            mode = "replay"
        elif self.store.is_poisoned(key):
            mode = "analyze"
        else:
            self.counters.jit_traced += 1
            mode = "record"
        self._stack.append(_LaunchState(mode, kdef.name, key, artifact=artifact))

    def end_launch(self, completed: bool) -> None:
        """Close the launch; a completed recording is published.

        A launch that raised (sanitizer abort, injected fault, watchdog)
        discards its partial trace without poisoning: the next attempt
        simply retraces.
        """
        state = self._stack.pop()
        if state.mode != "record" or not completed:
            return
        assert state.key is not None
        try:
            source = generate_source(state.key, state.kernel, state.events)
        except ValueError:
            # a non-finite summary field: never let the JIT fail a run —
            # ban the key and keep analyzing
            self.store.poison(state.key)
            self.counters.jit_bailouts += 1
            self._emit("codegen-failed", state)
            return
        self.counters.jit_compiled += 1
        self.store.put(
            state.key,
            JitArtifact(state.key, state.kernel, source, tuple(state.events)),
        )

    # ------------------------------------------------------------------
    # per-access analysis
    # ------------------------------------------------------------------
    def analyze_global(
        self,
        addrs,
        mask,
        itemsize: int,
        *,
        warp_size: int,
        transaction_bytes: int,
        sector_bytes: int,
    ):
        params = (itemsize, warp_size, transaction_bytes, sector_bytes)
        summary = self._replay("global", params, addrs, mask)
        if summary is not None:
            self.counters.global_jit += 1
            return summary
        summary = super().analyze_global(
            addrs,
            mask,
            itemsize,
            warp_size=warp_size,
            transaction_bytes=transaction_bytes,
            sector_bytes=sector_bytes,
        )
        self._record("global", params, addrs, mask, summary)
        return summary

    def analyze_shared(
        self,
        byte_offsets,
        mask,
        *,
        warp_size: int,
        nbanks: int,
        bank_bytes: int,
    ):
        params = (warp_size, nbanks, bank_bytes)
        summary = self._replay("shared", params, byte_offsets, mask)
        if summary is not None:
            self.counters.shared_jit += 1
            return summary
        summary = super().analyze_shared(
            byte_offsets,
            mask,
            warp_size=warp_size,
            nbanks=nbanks,
            bank_bytes=bank_bytes,
        )
        self._record("shared", params, byte_offsets, mask, summary)
        return summary

    # ------------------------------------------------------------------
    def _replay(self, kind: str, params: tuple, values, mask):
        """The stored summary of this access when replaying, else None.

        An exhausted trace (the launch issues *more* accesses than were
        recorded — a data-dependent loop ran longer), a kind mismatch
        (control flow reordered access sites) and a guard mismatch all
        invalidate the artifact for this key.
        """
        state = self._stack[-1] if self._stack else None
        if state is None or state.mode != "replay":
            return None
        assert state.artifact is not None
        events = state.artifact.events
        if state.cursor >= len(events):
            self._bail(state, f"{kind}-trace-exhausted")
            return None
        event = events[state.cursor]
        if event.kind != kind:
            self._bail(state, f"{kind}-kind-mismatch")
            return None
        state.cursor += 1
        summary = event.replay(params, values, mask)
        if summary is None:
            self._bail(state, f"{kind}-guard")
        return summary

    def _record(self, kind: str, params: tuple, values, mask, summary) -> None:
        state = self._stack[-1] if self._stack else None
        if state is None or state.mode != "record":
            return
        if len(state.events) >= MAX_TRACE_EVENTS:
            state.mode = "analyze"
            self.store.poison(state.key)
            self._emit("overflow", state)
            return
        state.events.append(
            TraceEvent(kind, params, lane_fingerprint(values, mask), summary)
        )

    def _bail(self, state: _LaunchState, reason: str) -> None:
        state.mode = "analyze"
        self.counters.jit_bailouts += 1
        if state.key is not None:
            self.store.poison(state.key)
        self._emit(reason, state)

    def _emit(self, reason: str, state: _LaunchState) -> None:
        hub = self.hub
        if hub is not None and hub.wants("jit"):
            hub.emit(
                "jit",
                f"bailout {state.kernel}",
                track="driver",
                reason=reason,
                key=(state.key or "")[:12],
            )
