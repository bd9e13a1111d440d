"""The JIT artifact format: a recorded launch trace as validated JSON.

An artifact is data, never code.  :func:`generate_source` renders a
trace as one canonical JSON document — per access its kind, guard
parameters, lane fingerprint, and analyzer summary — and
:func:`compile_artifact` is the only way back: it parses the text and
checks every field's type before building frozen events, so a tampered
or stale artifact from a shared cache directory can at worst carry
wrong summaries for matching fingerprints; it can never run anything.

Floats are written with ``repr`` (the ``json`` encoder's float format),
which round-trips doubles exactly, so a replayed
:class:`~repro.mem.coalesce.AccessSummary` is bit-identical to the one
the trace recorded.  Non-finite values are rejected in both directions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Sequence

from repro.jit.guards import lane_fingerprint
from repro.mem.banks import BankConflictSummary
from repro.mem.coalesce import AccessSummary

__all__ = [
    "TraceEvent",
    "JitArtifact",
    "generate_source",
    "compile_artifact",
]

Fingerprint = tuple[int, int, int, int]
Summary = AccessSummary | BankConflictSummary

#: per access kind: the summary type and the number of guard params
#: (global: itemsize, warp_size, transaction_bytes, sector_bytes;
#: shared: warp_size, nbanks, bank_bytes)
_KINDS: dict[str, tuple[type, int]] = {
    "global": (AccessSummary, 4),
    "shared": (BankConflictSummary, 3),
}

#: the exact type of every summary field, from the dataclass annotations
_FIELD_TYPES = {
    cls: {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}
    for cls, _ in _KINDS.values()
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded access: its guard inputs and the analyzer's answer."""

    kind: str
    params: tuple[int, ...]
    fp: Fingerprint
    summary: Summary

    def replay(self, params: tuple[int, ...], values, mask) -> Summary | None:
        """The recorded summary if this access matches the recorded one."""
        if params != self.params or lane_fingerprint(values, mask) != self.fp:
            return None
        return self.summary


@dataclass(frozen=True)
class JitArtifact:
    """A recorded trace: its JSON text plus the parsed events."""

    key: str
    kernel: str
    source: str
    events: tuple[TraceEvent, ...]


def generate_source(key: str, kernel: str, events: Sequence[TraceEvent]) -> str:
    """Render a recorded trace as canonical JSON text."""
    doc = {
        "key": key,
        "kernel": kernel,
        "events": [
            {
                "kind": ev.kind,
                "params": list(ev.params),
                "fp": list(ev.fp),
                "summary": vars(ev.summary),
            }
            for ev in events
        ],
    }
    # allow_nan=False: a non-finite summary field raises ValueError
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _ints(value: Any, n: int, what: str) -> tuple[int, ...]:
    if (
        not isinstance(value, list)
        or len(value) != n
        or any(type(v) is not int for v in value)
    ):
        raise ValueError(f"{what} must be a list of {n} ints, got {value!r}")
    return tuple(value)


def _summary(cls: type, doc: Any) -> Summary:
    spec = _FIELD_TYPES[cls]
    if not isinstance(doc, dict) or set(doc) != set(spec):
        raise ValueError(f"{cls.__name__} fields mismatch: {doc!r}")
    for name, typ in spec.items():
        value = doc[name]
        if type(value) is not typ or (typ is float and not math.isfinite(value)):
            raise ValueError(f"{cls.__name__}.{name} is not {typ.__name__}")
    return cls(**doc)


def _event(doc: Any) -> TraceEvent:
    if not isinstance(doc, dict) or set(doc) != {"kind", "params", "fp", "summary"}:
        raise ValueError(f"malformed trace event {doc!r}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown trace event kind {kind!r}")
    cls, n_params = _KINDS[kind]
    return TraceEvent(
        kind=kind,
        params=_ints(doc["params"], n_params, "params"),
        fp=_ints(doc["fp"], 4, "fp"),  # type: ignore[arg-type]
        summary=_summary(cls, doc["summary"]),
    )


def compile_artifact(key: str, kernel: str, source: str) -> JitArtifact:
    """Parse and validate artifact text; raises ``ValueError`` if bad."""
    doc = json.loads(source)
    if (
        not isinstance(doc, dict)
        or doc.get("key") != key
        or doc.get("kernel") != kernel
        or not isinstance(doc.get("events"), list)
    ):
        raise ValueError(f"malformed artifact for {kernel!r} ({key[:12]})")
    events = tuple(_event(ev) for ev in doc["events"])
    return JitArtifact(key=key, kernel=kernel, source=source, events=events)
