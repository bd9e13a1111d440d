"""Trace keys: the identity of one kernel-launch specialization.

A JIT artifact is only valid for launches whose analysis inputs are
guaranteed to *start from* the same state the trace saw, so the key
hashes everything the recorded summaries can depend on up front: the
model digest (:func:`~repro.sched.cache.model_digest`: the analyzers),
the kernel's source (which may lie outside the package) and metadata,
the launch geometry, the full :class:`~repro.arch.spec.GPUSpec` (warp
size, bank layout, transaction granularities), and a per-argument
signature — device arrays by base address/shape/dtype (the
deterministic allocator makes addresses repeat across runs), scalars
by exact value.  Anything the tracer cannot fingerprint makes the
launch :class:`Untraceable` and it runs on the reference path instead.

Data-dependent behaviour (gather indices read from device memory,
value-dependent loop trip counts) is deliberately *not* part of the
key; it is caught at replay time by the per-access guards in
:mod:`repro.jit.guards`.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import asdict
from typing import Any, Callable

import numpy as np

from repro.arch.spec import GPUSpec
from repro.mem.buffer import DeviceArray
from repro.sched.cache import _canonical, model_digest
from repro.simt.dim3 import Dim3
from repro.simt.kernel import KernelDef
from repro.simt.texture import TextureView

__all__ = ["Untraceable", "launch_key", "kernel_source"]

_source_memo: dict[Callable[..., Any], str] = {}


class Untraceable(Exception):
    """The launch carries an argument the tracer cannot fingerprint."""


def kernel_source(kdef: KernelDef) -> str:
    """The kernel body's source text (memoized per function object)."""
    cached = _source_memo.get(kdef.func)
    if cached is None:
        try:
            cached = inspect.getsource(kdef.func)
        except (TypeError, OSError):
            cached = "<source unavailable>"
        _source_memo[kdef.func] = cached
    return cached


def _arg_signature(arg: Any) -> Any:
    """A JSON-able identity for one launch argument.

    Device arrays sign by placement and layout — their *contents* are
    guarded at replay, not keyed, so rewriting a buffer in place does
    not force a retrace unless the address stream actually changes.
    """
    if isinstance(arg, DeviceArray):
        return {
            "k": "devarray",
            "addr": int(arg.base_addr),
            "shape": list(arg.shape),
            "dtype": str(arg.dtype),
        }
    if isinstance(arg, TextureView):
        return {
            "k": "tex",
            "base": _arg_signature(arg.storage),
            "width": arg.width,
            "height": arg.height,
            "tile": arg.tile,
        }
    if isinstance(arg, (bool, int, float, str, type(None))):
        return {"k": "scalar", "v": repr(arg)}
    if isinstance(arg, np.generic):
        return {"k": "scalar", "v": repr(arg.item()), "dtype": str(arg.dtype)}
    raise Untraceable(
        f"argument of type {type(arg).__name__} has no trace signature"
    )


def launch_key(
    kdef: KernelDef,
    grid: Dim3,
    block: Dim3,
    gpu: GPUSpec,
    args: tuple[Any, ...] | list[Any],
) -> str:
    """SHA-256 identity of one launch's analysis-relevant inputs."""
    material = {
        "model": model_digest(),
        "kernel": {
            "name": kdef.name,
            "registers": kdef.registers,
            "source": kernel_source(kdef),
        },
        "grid": [grid.x, grid.y, grid.z],
        "block": [block.x, block.y, block.z],
        "gpu": asdict(gpu),
        "args": [_arg_signature(a) for a in args],
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()
