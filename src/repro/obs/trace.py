"""Distributed trace identity (``TraceContext``).

One *trace* is one scheduler run — a ``repro sweep``/``table1``/
``check`` invocation, however many processes end up executing it.  One
*span* is one unit of work inside that run: the run itself (the root
span), or one :class:`~repro.sched.runner.JobSpec` (a job span, child
of the root, keyed by the job's position in the run's manifest).
Identity is derived when a trace or a ``repro journal show`` filter is
read, never stored: workers key what they write by the job's
fingerprint, and the stitcher (:mod:`~repro.obs.stitch`) maps each
fingerprint to its span through the current manifest, so a
``--resume`` with another job list cannot file one job's activity
under another job's span.

Identities are **deterministic**, not random: the trace id is a hash
of the run id, and every span id is a hash of ``(trace id, parent
span id, span key)``.  Determinism is what makes the observability
plane compatible with the repo's byte-identity guarantees — every
reader derives the same ids from the same run directory, a
``--resume`` of an unchanged job list keeps the ids of the original
run, and a re-stitch of a finished run reproduces the previous trace
byte for byte.  Nothing ships ids across processes.

Wire format (the ``args`` of every stitched ``--trace`` event)::

    {"trace_id": "6fd1…", "span_id": "a3c2…", "parent_span_id": "09b7…"}
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["TraceContext", "trace_id_for_run", "ROOT_SPAN_KEY", "job_span_key"]

#: span key of the run's root span
ROOT_SPAN_KEY = "run"

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


def _digest(material: str, length: int) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:length]


def trace_id_for_run(run_id: str) -> str:
    """The deterministic trace id of one scheduler run."""
    return _digest(f"repro-trace:{run_id}", _TRACE_ID_HEX)


def job_span_key(ordinal: int) -> str:
    """The span key of job ``ordinal`` (spec-order position)."""
    return f"job:{ordinal}"


@dataclass(frozen=True)
class TraceContext:
    """One span's identity: (trace, span, parent span)."""

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def root(cls, run_id: str) -> "TraceContext":
        """The root span of one run; same run id → same identity."""
        trace_id = trace_id_for_run(run_id)
        return cls(
            trace_id=trace_id,
            span_id=_digest(f"{trace_id}:{ROOT_SPAN_KEY}", _SPAN_ID_HEX),
            parent_span_id=None,
        )

    def child(self, key: str) -> "TraceContext":
        """A child span; same (parent, key) → same identity."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_digest(
                f"{self.trace_id}:{self.span_id}:{key}", _SPAN_ID_HEX
            ),
            parent_span_id=self.span_id,
        )

    def job(self, ordinal: int) -> "TraceContext":
        """The span of job ``ordinal`` under this span."""
        return self.child(job_span_key(ordinal))
