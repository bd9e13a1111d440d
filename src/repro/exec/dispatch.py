"""Backend selection for memory-analysis dispatch.

A *backend* decides how each warp-wide access is analyzed:

* ``reference`` — always the per-lane sort-based analyzers of
  :mod:`repro.mem` (the executable oracle);
* ``jit`` — the trace-JIT backend of :mod:`repro.jit`: record a launch
  once per trace key on :class:`FastDispatch` (every access on the
  reference analyzers), store the access summaries as data, and replay
  later launches behind linear-time guards, bailing back to analysis
  per kernel on any mismatch.

Both produce identical summaries (the differential suite in
``tests/differential/`` enforces this for every registered benchmark),
so the choice is purely a performance knob.  Selection follows the
session-ambient pattern used elsewhere in the runtime: an explicit
argument wins, then the innermost :func:`use_backend` context, then the
``REPRO_BACKEND`` environment variable, then ``"reference"``.

Each dispatcher instance carries an :class:`ExecCounters` describing
how many accesses took which path — exported to metrics documents as
the ``execution`` section, deliberately *outside* the kernel counters
so backend equivalence remains checkable on the counters themselves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field

from repro.common.errors import LaunchConfigError
from repro.mem.banks import BankConflictSummary, analyze_shared_access
from repro.mem.coalesce import AccessSummary, analyze_access

__all__ = [
    "BACKENDS",
    "ExecCounters",
    "ReferenceDispatch",
    "FastDispatch",
    "use_backend",
    "current_backend_name",
    "make_dispatcher",
]

#: recognised backend names, in documentation order
BACKENDS = ("reference", "jit")

_ENV_VAR = "REPRO_BACKEND"
#: the innermost :func:`use_backend` scope of this thread (or task)
_ambient: ContextVar[str | None] = ContextVar("repro_backend", default=None)


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise LaunchConfigError(
            f"unknown execution backend {name!r}; choose from {BACKENDS}"
        )
    return name


@contextmanager
def use_backend(name: str):
    """Select the execution backend for runtimes created in this scope."""
    token = _ambient.set(_validate(name))
    try:
        yield
    finally:
        _ambient.reset(token)


def current_backend_name(explicit: str | None = None) -> str:
    """Resolve the backend: explicit > ambient context > env > reference."""
    if explicit is not None:
        return _validate(explicit)
    ambient = _ambient.get()
    if ambient is not None:
        return ambient
    env = os.environ.get(_ENV_VAR)
    if env:
        return _validate(env)
    return "reference"


@dataclass
class ExecCounters:
    """How many accesses the reference analyzers served.

    Every analyzed global access lands in ``global_reference`` and every
    analyzed shared access in ``shared_reference``, on both backends.
    """

    global_reference: int = 0
    shared_reference: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter by field name, subclass fields included."""
        return asdict(self)


@dataclass
class ReferenceDispatch:
    """Always analyze through the reference :mod:`repro.mem` oracle."""

    name = "reference"
    counters: ExecCounters = field(default_factory=ExecCounters)

    def analyze_global(
        self,
        addrs,
        mask,
        itemsize: int,
        *,
        warp_size: int,
        transaction_bytes: int,
        sector_bytes: int,
    ) -> AccessSummary:
        self.counters.global_reference += 1
        return analyze_access(
            addrs,
            mask,
            itemsize,
            warp_size=warp_size,
            transaction_bytes=transaction_bytes,
            sector_bytes=sector_bytes,
        )

    def analyze_shared(
        self,
        byte_offsets,
        mask,
        *,
        warp_size: int,
        nbanks: int,
        bank_bytes: int,
    ) -> BankConflictSummary:
        self.counters.shared_reference += 1
        return analyze_shared_access(
            byte_offsets,
            mask,
            warp_size=warp_size,
            nbanks=nbanks,
            bank_bytes=bank_bytes,
        )


@dataclass
class FastDispatch(ReferenceDispatch):
    """The analysis ``JitDispatch`` records on (not a selectable backend):
    the reference analyzers for every access."""

    name = "fast"

    # defined here, not inherited: benchmarks/perf/spans.py hooks them by name
    analyze_global = ReferenceDispatch.analyze_global
    analyze_shared = ReferenceDispatch.analyze_shared


def make_dispatcher(name: str | None = None) -> ReferenceDispatch:
    """Build a dispatcher for the resolved backend name."""
    if current_backend_name(name) == "jit":
        # deferred import: repro.jit subclasses FastDispatch
        from repro.jit.dispatch import JitDispatch

        return JitDispatch()
    return ReferenceDispatch()
