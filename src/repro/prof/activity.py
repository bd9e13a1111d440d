"""The activity API: structured records + a subscriber registry.

The CUPTI analog of the simulator.  Execution layers (the discrete-
event engine, the executor, the host runtime, the fault injector, the
sanitizer) *emit* :class:`ActivityRecord` s into an :class:`ActivityHub`;
tools (the profiler session, exporters, tests) *subscribe* to the kinds
they care about.  Like CUPTI, the instrumentation is strictly opt-in:

* a producer that has no hub attached pays one ``is None`` check;
* a hub with no subscriber interested in a kind refuses the emission at
  :meth:`ActivityHub.wants` before any record object is built.

Nothing on the simulator's hot path (per-lane NumPy work) ever calls
into the hub — emission happens at operation granularity (one record
per kernel/copy/migration/finding), mirroring CUPTI's activity-buffer
design rather than its callback-per-API-call mode.

Record kinds
------------

=============  ======================================================
``kernel``     a kernel (or graph dispatch) completed on the device
``memcpy``     an explicit H2D/D2H/D2D copy completed
``migrate``    a unified-memory page-migration batch completed
``delay``      an injected stall / retry backoff occupied a stream
``event``      a CUDA event was recorded or waited on
``launch``     driver phase: a kernel body finished functional
               execution (device time unknown yet; ordered by ``seq``)
``counter``    per-kernel metric sample (occupancy, efficiencies)
``fault``      the fault injector fired or recovered
``sanitizer``  a compute-sanitizer analog finding was raised
``sched``      an engine worker's supervision ladder acted: a retry,
               a job timeout, a worker crash, a degradation fallback,
               or a quarantine, on the ``scheduler`` track of the
               worker's own hub (its flight recorder keeps them); the
               run's worker logs hold the rest of its coordination
=============  ======================================================

Timed kinds carry device-clock ``start``/``end`` seconds; driver-phase
kinds (``launch``, ``fault``, ``sanitizer``, ``sched``) carry ``None``
and rely on ``seq``, the global emission ordinal, for ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = ["ActivityRecord", "ActivityHub", "ActivityLog", "KINDS"]

#: Every activity kind an execution layer may emit.
KINDS = (
    "kernel",
    "memcpy",
    "migrate",
    "delay",
    "event",
    "launch",
    "counter",
    "fault",
    "sanitizer",
    "sched",
)


@dataclass(frozen=True)
class ActivityRecord:
    """One structured observability event.

    ``track`` is the display lane (a stream name, a copy engine, or a
    logical track like ``"driver"``); exporters map it to a Chrome
    trace ``tid``.  ``args`` is an open key/value payload; exporters
    serialize it verbatim.
    """

    kind: str
    name: str
    track: str = ""
    start: float | None = None    #: device seconds; None for driver phase
    end: float | None = None
    seq: int = 0                  #: global emission ordinal (hub-assigned)
    args: Mapping[str, Any] = field(default_factory=dict)

    @property
    def timed(self) -> bool:
        return self.start is not None and self.end is not None

    @property
    def duration(self) -> float:
        """Seconds on the device clock; 0.0 for driver-phase records."""
        if not self.timed:
            return 0.0
        return self.end - self.start  # type: ignore[operator]


class ActivityHub:
    """Routes emitted records to the subscribers that asked for them.

    Subscribing with ``kinds=None`` receives everything.  ``wants`` is
    the producer-side gate: emission sites call it *before* building a
    record so an un-observed kind costs a set lookup, nothing more.
    """

    def __init__(self) -> None:
        #: (callback, frozenset of kinds or None) per subscription id
        self._subs: dict[int, tuple[Callable[[ActivityRecord], None], frozenset | None]] = {}
        self._next_id = 0
        self._seq = 0
        self._wanted: frozenset | None = frozenset()  # None = wants all

    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[ActivityRecord], None],
        kinds: Iterable[str] | None = None,
    ) -> int:
        """Register ``callback`` for ``kinds`` (all when None); returns a
        subscription id usable with :meth:`unsubscribe`."""
        ks: frozenset | None
        if kinds is None:
            ks = None
        else:
            ks = frozenset(kinds)
            unknown = ks - set(KINDS)
            if unknown:
                raise ValueError(
                    f"unknown activity kind(s) {sorted(unknown)}; "
                    f"known: {', '.join(KINDS)}"
                )
        sid = self._next_id
        self._next_id += 1
        self._subs[sid] = (callback, ks)
        self._rebuild_wanted()
        return sid

    def unsubscribe(self, sid: int) -> None:
        self._subs.pop(sid, None)
        self._rebuild_wanted()

    def _rebuild_wanted(self) -> None:
        if any(ks is None for _, ks in self._subs.values()):
            self._wanted = None
        else:
            wanted: set[str] = set()
            for _, ks in self._subs.values():
                wanted |= ks  # type: ignore[arg-type]
            self._wanted = frozenset(wanted)

    # ------------------------------------------------------------------
    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    def wants(self, kind: str) -> bool:
        """True when at least one subscriber would receive ``kind``."""
        w = self._wanted
        return True if w is None else kind in w

    def emit(
        self,
        kind: str,
        name: str,
        *,
        track: str = "",
        start: float | None = None,
        end: float | None = None,
        **args: Any,
    ) -> ActivityRecord | None:
        """Build and dispatch one record; returns it, or None when no
        subscriber wanted the kind."""
        if not self.wants(kind):
            return None
        self._seq += 1
        rec = ActivityRecord(
            kind=kind,
            name=name,
            track=track,
            start=start,
            end=end,
            seq=self._seq,
            args=args,
        )
        self.dispatch(rec)
        return rec

    def dispatch(self, rec: ActivityRecord) -> None:
        """Deliver an already-built record to interested subscribers."""
        for callback, ks in self._subs.values():
            if ks is None or rec.kind in ks:
                callback(rec)


class ActivityLog:
    """The simplest subscriber: an append-only list of records.

    Usable directly as a hub callback::

        log = ActivityLog()
        hub.subscribe(log, kinds=("kernel", "memcpy"))
    """

    def __init__(self) -> None:
        self.records: list[ActivityRecord] = []

    def __call__(self, rec: ActivityRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def by_kind(self, kind: str) -> list[ActivityRecord]:
        return [r for r in self.records if r.kind == kind]

    def clear(self) -> None:
        self.records.clear()
