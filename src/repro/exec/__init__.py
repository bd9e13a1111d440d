"""Execution backends: the reference oracle and the trace-JIT backend of
:mod:`repro.jit` (selected as ``"jit"``), which records every access on
that oracle and replays the recorded answers."""

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

__all__ = [
    "BACKENDS",
    "BackendDivergenceError",
    "ExecCounters",
    "FastDispatch",
    "ReferenceDispatch",
    "current_backend_name",
    "make_dispatcher",
    "use_backend",
]
