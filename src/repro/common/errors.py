"""Exception hierarchy for the simulator.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch simulator problems without masking genuine Python bugs.
The sub-classes mirror the CUDA error families a real runtime reports:
configuration problems at launch time, invalid memory operations, and
misuse of the stream/graph APIs.

Each CUDA error family maps to the ``cudaError_t`` code a real runtime
would return (:func:`cuda_error_name`), and the code is appended to the
rendered message so log lines read like the CUDA runtime's::

    >>> str(LaunchConfigError("block of 2048 threads"))
    'block of 2048 threads [cudaErrorInvalidConfiguration]'

An error outside those families (a bad CLI argument, a supervision
failure, a rejected request) renders its message alone.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "LaunchConfigError",
    "MemoryError_",
    "AllocationError",
    "InvalidAddressError",
    "StreamError",
    "GraphError",
    "KernelRuntimeError",
    "WatchdogTimeout",
    "SanitizerError",
    "SpecError",
    "BackendDivergenceError",
    "cuda_error_name",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    def __str__(self) -> str:
        base = super().__str__()
        code = _family_code(type(self))
        if code is None:
            return base
        return f"{base} [{code}]" if base else code


class SpecError(ReproError):
    """An architecture specification is inconsistent or unknown."""


class LaunchConfigError(ReproError):
    """A kernel launch configuration is invalid.

    Raised for zero/negative dimensions, block sizes over the device
    limit, shared-memory requests over the per-block capacity, and
    similar misconfigurations that a real CUDA runtime would reject with
    ``cudaErrorInvalidConfiguration``.
    """


class MemoryError_(ReproError):
    """Base class for device-memory errors (named to avoid shadowing
    the builtin :class:`MemoryError`)."""


class AllocationError(MemoryError_):
    """Device memory allocation failed (arena exhausted, bad size)."""


class InvalidAddressError(MemoryError_):
    """A kernel or copy touched memory outside any live allocation."""


class StreamError(ReproError):
    """Misuse of streams or events (e.g. waiting on an unrecorded event)."""


class GraphError(ReproError):
    """Misuse of the task-graph API (capture violations, cycles)."""


class KernelRuntimeError(ReproError):
    """A kernel body raised or misused the device context."""


class WatchdogTimeout(KernelRuntimeError):
    """A kernel exceeded the runtime's step budget and was killed.

    The analog of the WDDM/display watchdog killing a long-running
    kernel (``cudaErrorLaunchTimeout``).  Like a real launch timeout it
    is a *sticky* error: the context stays poisoned until
    :meth:`~repro.host.runtime.CudaLite.reset`.
    """


class SanitizerError(ReproError):
    """A sanitizer tool found errors and the caller asked to fail hard.

    Raised by :meth:`repro.sanitize.SanitizerReport.raise_if_errors`
    and by the ``sanitize`` CLI when a run must gate on correctness.
    """


class BackendDivergenceError(ReproError):
    """An accelerated execution backend disagreed with the reference oracle.

    The differential suite keeps every backend bit-identical, so in
    normal operation this never fires; it exists as the typed signal a
    self-check (or the scheduler chaos plan) raises so the supervised
    scheduler can re-run the job on the reference backend — the
    "degrade to the oracle" rung of the resilience ladder.
    """


#: cudaError_t analog for each error family, most-derived classes first
#: (lookup walks the MRO, so subclasses inherit their family's code
#: unless they have an entry of their own).
_CUDA_ERROR_NAMES: dict[type, str] = {
    WatchdogTimeout: "cudaErrorLaunchTimeout",
    SanitizerError: "cudaErrorAssert",
    BackendDivergenceError: "cudaErrorUnknown",
    LaunchConfigError: "cudaErrorInvalidConfiguration",
    AllocationError: "cudaErrorMemoryAllocation",
    InvalidAddressError: "cudaErrorIllegalAddress",
    MemoryError_: "cudaErrorInvalidValue",
    StreamError: "cudaErrorInvalidResourceHandle",
    GraphError: "cudaErrorStreamCaptureInvalidated",
    KernelRuntimeError: "cudaErrorLaunchFailure",
    SpecError: "cudaErrorInvalidDevice",
}


def _family_code(cls: type) -> str | None:
    """The code of the nearest mapped ancestor of ``cls``; None when
    none is mapped."""
    for base in cls.__mro__:
        name = _CUDA_ERROR_NAMES.get(base)
        if name is not None:
            return name
    return None


def cuda_error_name(error: ReproError | type[ReproError]) -> str:
    """The ``cudaError_t`` enumerator a real runtime would report.

    Accepts an exception instance or class; unknown subclasses resolve
    through their nearest mapped ancestor, and classes with none to
    ``cudaErrorUnknown``.
    """
    cls = error if isinstance(error, type) else type(error)
    return _family_code(cls) or "cudaErrorUnknown"
