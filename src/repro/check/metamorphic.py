"""Metamorphic relations over the simulator's counter pipeline.

A metamorphic relation transforms a run's *input* in a way whose effect
on the *counters* is known in advance: scaling the problem scales
transaction counts proportionally, permuting the order blocks process
their chunks changes nothing, and changing the warp width moves
divergence in a direction the kernel's branch structure predicts.  The
relations execute real kernel launches through
:class:`~repro.host.runtime.CudaLite` under each execution backend
(``reference`` and ``jit``), so an accelerated-path shortcut that
breaks a physical proportionality is caught even when the differential
suite's fixed cases still agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.arch.presets import CARINA
from repro.check.report import CheckOutcome
from repro.common.errors import ReproError
from repro.exec import BACKENDS, use_backend
from repro.host.runtime import CudaLite
from repro.simt.kernel import kernel
from repro.simt.stats import KernelStats

__all__ = [
    "RELATIONS",
    "relation",
    "run_relations",
    "list_relations",
]

#: relative tolerance for proportionality relations (sampling slack)
SCALE_TOL = 0.05

#: counters that must be preserved exactly under block-order permutation
ORDER_FREE_COUNTERS = (
    "issue_cycles",
    "warp_instructions",
    "thread_instructions",
    "global_requests",
    "transactions",
    "sectors_requested",
    "bytes_requested",
    "branches",
    "divergent_branches",
)

Relation = Callable[[str], list[CheckOutcome]]

RELATIONS: dict[str, Relation] = {}


def relation(name: str) -> Callable[[Relation], Relation]:
    """Register a metamorphic relation under ``name``."""

    def register(fn: Relation) -> Relation:
        if name in RELATIONS:
            raise ReproError(f"duplicate relation {name!r}")
        RELATIONS[name] = fn
        return fn

    return register


def list_relations() -> list[str]:
    return sorted(RELATIONS)


def run_relations(
    names: Sequence[str] | None = None,
    *,
    backends: Sequence[str] = BACKENDS,
) -> list[CheckOutcome]:
    """Execute relations (all by default) under each backend."""
    outcomes: list[CheckOutcome] = []
    for name in names or list_relations():
        try:
            fn = RELATIONS[name]
        except KeyError:
            raise ReproError(
                f"unknown relation {name!r}; available: "
                f"{', '.join(list_relations())}"
            ) from None
        for backend in backends:
            with use_backend(backend):
                outcomes.extend(fn(backend))
    return outcomes


# ----------------------------------------------------------------------
# Probe kernels
# ----------------------------------------------------------------------

@kernel(name="mr_stream")
def _stream_kernel(ctx, x, y):
    """Unit-stride copy-scale: one coalesced load + store per thread."""
    tid = ctx.global_thread_id()
    ctx.store(y, tid, 2.0 * ctx.load(x, tid))


@kernel(name="mr_strided")
def _strided_kernel(ctx, x, y, stride):
    """Strided gather: every request explodes into many transactions."""
    tid = ctx.global_thread_id()
    n = ctx.total_threads()
    ctx.store(y, tid, ctx.load(x, (tid * stride) % n))


@kernel(name="mr_block_mapped")
def _block_mapped_kernel(ctx, order, x, y):
    """Process chunk ``order[blockIdx.x]`` instead of chunk ``blockIdx.x``.

    With ``order`` a permutation, the set of warps and the addresses
    each touches are identical to the identity mapping — only *which*
    block does the work changes, so every counter must be preserved.
    """
    logical = ctx.load(order, ctx.block_idx_x)
    i = logical * ctx.block_dim.x + ctx.thread_idx_x
    ctx.store(y, i, 2.0 * ctx.load(x, i))


@kernel(name="mr_parity_branch")
def _parity_branch_kernel(ctx, x, y):
    """Even/odd lanes branch apart: diverges at any warp width > 1."""
    tid = ctx.global_thread_id()
    ctx.branch(
        (tid % 2) == 0,
        lambda: ctx.store(y, tid, 2.0 * ctx.load(x, tid)),
        lambda: ctx.store(y, tid, 3.0 * ctx.load(x, tid)),
    )


@kernel(name="mr_chunk_branch")
def _chunk_branch_kernel(ctx, x, y):
    """Branch uniform within 32-lane chunks: diverges only for warps > 32."""
    tid = ctx.global_thread_id()
    ctx.branch(
        ((tid // 32) % 2) == 0,
        lambda: ctx.store(y, tid, 2.0 * ctx.load(x, tid)),
        lambda: ctx.store(y, tid, 3.0 * ctx.load(x, tid)),
    )


def _launch(
    kdef, n: int, args_fn, *, system=None, block: int = 256
) -> tuple[KernelStats, np.ndarray]:
    """Run one probe launch of ``n`` threads; returns (stats, output)."""
    system = system or CARINA
    rt = CudaLite(system)
    hx = np.arange(n, dtype=np.float32) % 1024
    x = rt.to_device(hx)
    y = rt.malloc(n)
    stats = rt.launch(kdef, -(-n // block), block, *args_fn(rt, x, y))
    rt.synchronize()
    return stats, y.to_host()


def _outcome(
    name: str, subject: str, backend: str, passed: bool, detail: str
) -> CheckOutcome:
    return CheckOutcome(
        kind="relation",
        subject=subject,
        name=name,
        passed=passed,
        detail=detail,
        backend=backend,
    )


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------

@relation("scale-n-scales-transactions")
def _scale_n(backend: str) -> list[CheckOutcome]:
    """Scaling the grid by k scales memory counters by ~k.

    Runs the coalesced stream and a 32-stride gather at n and 4n; for
    both patterns transactions, requested sectors, and useful bytes are
    extensive quantities and must scale with the grid.
    """
    outcomes = []
    k = 4
    for kdef, args_fn, subject in (
        (_stream_kernel, lambda rt, x, y: (x, y), "mr_stream"),
        (
            _strided_kernel,
            lambda rt, x, y: (x, y, 32),
            "mr_strided",
        ),
    ):
        small, _ = _launch(kdef, 1 << 14, args_fn)
        large, _ = _launch(kdef, k << 14, args_fn)
        details = []
        ok = True
        for counter in ("transactions", "sectors_requested", "bytes_requested"):
            a = getattr(small, counter)
            b = getattr(large, counter)
            ratio = b / a if a else float("inf")
            if abs(ratio - k) > k * SCALE_TOL:
                ok = False
            details.append(f"{counter} x{ratio:.3f}")
        outcomes.append(
            _outcome(
                "scale-n-scales-transactions",
                subject,
                backend,
                ok,
                f"n scaled x{k}: " + ", ".join(details) +
                (f" (expected ~x{k})" if not ok else ""),
            )
        )
    return outcomes


@relation("block-order-permutation-preserves-counters")
def _block_permutation(backend: str) -> list[CheckOutcome]:
    """Permuting which block processes which chunk changes no counter."""
    n, block = 1 << 16, 256
    blocks = n // block
    rng = np.random.default_rng(20260806)
    perm = rng.permutation(blocks).astype(np.int32)
    identity = np.arange(blocks, dtype=np.int32)

    def run(order: np.ndarray) -> tuple[KernelStats, np.ndarray]:
        rt = CudaLite(CARINA)
        hx = (np.arange(n, dtype=np.float32) % 512) + 1.0
        x = rt.to_device(hx)
        y = rt.malloc(n)
        o = rt.to_device(order)
        stats = rt.launch(_block_mapped_kernel, blocks, block, o, x, y)
        rt.synchronize()
        return stats, y.to_host()

    base_stats, base_out = run(identity)
    perm_stats, perm_out = run(perm)
    mismatches = []
    for counter in ORDER_FREE_COUNTERS:
        a = getattr(base_stats, counter)
        b = getattr(perm_stats, counter)
        if a != b:
            mismatches.append(f"{counter}: {a:g} -> {b:g}")
    if not np.array_equal(base_out, perm_out):
        mismatches.append("output array differs")
    return [
        _outcome(
            "block-order-permutation-preserves-counters",
            "mr_block_mapped",
            backend,
            not mismatches,
            "identity vs permuted block order: "
            + ("; ".join(mismatches) if mismatches else
               f"{len(ORDER_FREE_COUNTERS)} counters + output identical"),
        )
    ]


@relation("warp-size-shifts-divergence")
def _warp_size(backend: str) -> list[CheckOutcome]:
    """Warp-width changes move divergence exactly as branch shape predicts.

    The parity branch diverges at every power-of-two warp width > 1;
    the 32-lane chunk branch is warp-uniform for widths dividing 32 and
    diverges only once warps span both chunks (width 64).
    """
    outcomes = []
    n = 1 << 14
    for width in (16, 32, 64):
        system = CARINA.evolve(gpu=CARINA.gpu.evolve(warp_size=width))
        parity, _ = _launch(_parity_branch_kernel, n,
                            lambda rt, x, y: (x, y), system=system)
        chunk, _ = _launch(_chunk_branch_kernel, n,
                           lambda rt, x, y: (x, y), system=system)
        expect_chunk_divergent = width > 32
        ok = (
            parity.divergent_branches > 0
            and parity.branch_efficiency == 0.0
            and (chunk.divergent_branches > 0) == expect_chunk_divergent
            and (
                chunk.warp_execution_efficiency == 1.0
                if not expect_chunk_divergent
                else chunk.warp_execution_efficiency < 1.0
            )
        )
        outcomes.append(
            _outcome(
                "warp-size-shifts-divergence",
                f"warp{width}",
                backend,
                ok,
                f"width {width}: parity divergent_branches="
                f"{parity.divergent_branches} (expected >0), chunk "
                f"divergent_branches={chunk.divergent_branches} (expected "
                f"{'>0' if expect_chunk_divergent else '0'}), chunk warp "
                f"efficiency={chunk.warp_execution_efficiency:.3f}",
            )
        )
    return outcomes
