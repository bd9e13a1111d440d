"""Trace-JIT execution backend: record analysis answers once, replay them.

The first launch of a trace key (:mod:`repro.jit.tracekey`) analyzes on
the reference analyzers while recording each access's lane fingerprint
and summary.  The trace is stored as validated JSON data,
never code (:mod:`repro.jit.codegen`, :mod:`repro.jit.store`), and
later launches with the same key replay it behind linear-time guards
(:mod:`repro.jit.guards`), bailing back to analysis on any mismatch
(:mod:`repro.jit.dispatch`).

Select it with ``use_backend("jit")``, ``REPRO_BACKEND=jit``, or
``--backend jit``; the differential suite locks it byte-identical to the
reference backend for every registered benchmark.
"""

from repro.jit.codegen import JitArtifact, compile_artifact, generate_source
from repro.jit.dispatch import JitCounters, JitDispatch
from repro.jit.store import (
    JIT_SCHEMA,
    ArtifactStore,
    default_store,
    jit_stats,
    reset_jit_store,
)
from repro.jit.tracekey import Untraceable, launch_key

__all__ = [
    "JIT_SCHEMA",
    "ArtifactStore",
    "JitArtifact",
    "JitCounters",
    "JitDispatch",
    "Untraceable",
    "compile_artifact",
    "default_store",
    "generate_source",
    "jit_stats",
    "launch_key",
    "reset_jit_store",
]
