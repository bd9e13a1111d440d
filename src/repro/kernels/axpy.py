"""AXPY kernels: the paper's workhorse example.

``y[i] += a * x[i]`` appears throughout the paper in different guises:

* Fig. 8 — one-element-per-thread, block-distributed and
  cyclic-distributed loops (coalescing, CoMem);
* Fig. 10 — aligned vs. misaligned indexing (MemAlign);
* §IV-D — staging through shared memory with and without
  ``memcpy_async`` (GSOverlap);
* §V-C — strided access density (UniMem).

All kernels compute bit-identical results to the NumPy reference
``y += a * x`` over the elements they touch.
"""

from __future__ import annotations

from repro.simt.kernel import kernel

__all__ = [
    "axpy_1per_thread",
    "axpy_block",
    "axpy_cyclic",
    "axpy_aligned",
    "axpy_misaligned",
    "axpy_strided",
    "axpy_shared_staged",
    "axpy_shared_async",
]


@kernel
def axpy_1per_thread(ctx, x, y, n, a):
    """One element per thread; coalesced (paper Fig. 8, first kernel)."""
    i = ctx.global_thread_id()
    ctx.if_active(i < n, lambda: ctx.store(y, i, a * ctx.load(x, i) + ctx.load(y, i)))


@kernel
def axpy_block(ctx, x, y, n, a):
    """Block distribution of loop iterations (paper Fig. 8, second kernel).

    Each thread owns a contiguous chunk, so a warp's lanes are
    ``ceil(n/total_threads)`` elements apart: uncoalesced.  Rounding the
    chunk up covers every element when ``n`` is not a multiple of the
    thread count; the ``j < n`` guard masks the overhang.
    """
    i = ctx.global_thread_id()
    total = ctx.total_threads()
    block_size = -(-n // total)
    start = i * block_size
    stop = start + block_size
    for j in ctx.strided_range(start, stop, 1):
        ctx.branch(j < n, lambda: ctx.store(y, j, a * ctx.load(x, j) + ctx.load(y, j)))


@kernel
def axpy_cyclic(ctx, x, y, n, a):
    """Cyclic distribution (paper Fig. 8, third kernel): coalesced."""
    i = ctx.global_thread_id()
    total = ctx.total_threads()
    for j in ctx.strided_range(i, n, total):
        ctx.store(y, j, a * ctx.load(x, j) + ctx.load(y, j))


@kernel
def axpy_aligned(ctx, x, y, n, a):
    """Aligned access (paper Fig. 10a): element 0 skipped, warp requests
    start on a transaction boundary."""
    i = ctx.global_thread_id()
    ctx.if_active(
        (i > 0) & (i < n),
        lambda: ctx.store(y, i, a * ctx.load(x, i) + ctx.load(y, i)),
    )


@kernel
def axpy_misaligned(ctx, x, y, n, a):
    """Misaligned access (paper Fig. 10b): the +1 offset makes every warp
    straddle an extra 128-byte segment."""
    i = ctx.global_thread_id() + 1
    ctx.if_active(i < n, lambda: ctx.store(y, i, a * ctx.load(x, i) + ctx.load(y, i)))


@kernel
def axpy_strided(ctx, x, y, n, a, stride):
    """Strided AXPY (paper §V-C): thread t updates element ``t * stride``.

    ``stride`` controls memory-access density — the fraction of each
    transferred page that computation actually uses.
    """
    i = ctx.global_thread_id() * stride
    ctx.if_active(i < n, lambda: ctx.store(y, i, a * ctx.load(x, i) + ctx.load(y, i)))


@kernel
def axpy_shared_staged(ctx, x, y, n, a):
    """AXPY staging x through shared memory via registers (paper §IV-D).

    The global->register->shared round trip is the baseline that
    ``memcpy_async`` eliminates.
    """
    tile = ctx.shared_array(ctx.block.x, x.dtype)
    i = ctx.global_thread_id()
    t = ctx.thread_idx_x

    def body():
        tile.store(t, ctx.load(x, i))  # global -> register -> shared

    ctx.if_active(i < n, body)
    ctx.syncthreads()

    def compute():
        ctx.store(y, i, a * tile.load(t) + ctx.load(y, i))

    ctx.if_active(i < n, compute)


@kernel
def axpy_shared_async(ctx, x, y, n, a):
    """AXPY staging x through shared memory with ``memcpy_async``
    (paper §IV-D): the copy bypasses registers and pipelines with the
    rest of the kernel.  Requires an Ampere-class GPU."""
    tile = ctx.shared_array(ctx.block.x, x.dtype)
    i = ctx.global_thread_id()
    t = ctx.thread_idx_x

    ctx.if_active(i < n, lambda: ctx.memcpy_async(tile, t, x, i))
    ctx.pipeline_commit_and_wait()
    ctx.syncthreads()

    def compute():
        ctx.store(y, i, a * tile.load(t) + ctx.load(y, i))

    ctx.if_active(i < n, compute)
