"""Execution backends: the reference oracle and the trace-JIT backend of
:mod:`repro.jit` (selected as ``"jit"``), which records global accesses
on the oracle and shared ones on the residue-class fast path."""

from repro.common.errors import BackendDivergenceError
from repro.exec.dispatch import (
    BACKENDS,
    ExecCounters,
    FastDispatch,
    ReferenceDispatch,
    current_backend_name,
    make_dispatcher,
    use_backend,
)
from repro.exec.fastpath import analyze_shared_access_fast

__all__ = [
    "BACKENDS",
    "BackendDivergenceError",
    "ExecCounters",
    "FastDispatch",
    "ReferenceDispatch",
    "current_backend_name",
    "make_dispatcher",
    "use_backend",
    "analyze_shared_access_fast",
]
