"""Device memory operations of the thread context.

This mixin implements the global/constant/texture access methods of
:class:`~repro.simt.context.ThreadContext`.  Every access does three
things at once:

1. *functional execution* — vectorized gather/scatter against the
   backing NumPy buffers, honouring the current activity mask;
2. *coalescing analysis* — lane byte-addresses are run through the
   context's :mod:`repro.exec.dispatch` backend (reference analyzer, or
   the jit's replay of its recorded answers) and appended to the
   launch's access trace for later cache resolution;
3. *issue accounting* — the LSU is occupied for one cycle per
   transaction, so a fully uncoalesced access (32 transactions) costs
   a warp 32x the issue slots of a coalesced one, before any DRAM
   bandwidth effect.

Inside a compacted :meth:`~repro.simt.context.ThreadContext.while_active`
iteration the context holds only the kept warps' lanes; :func:`full_grid`
runs each memory and barrier operation over the launch's full layout, so
the analyzers, the access trace, the sanitizer and the JIT see the same
lanes as in a loop that never compacts.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.common.errors import InvalidAddressError, KernelRuntimeError
from repro.mem.buffer import DeviceArray
from repro.mem.coalesce import lanes_to_warps, warp_distinct_counts
from repro.simt.lanevec import LaneVec
from repro.simt.texture import TextureView

__all__ = ["MemoryOpsMixin", "full_grid"]

_CARRY_HINT = (
    "a lane vector the body reads must be passed to while_active as a "
    "carried value"
)


def full_grid(op):
    """Run the memory or barrier operation ``op`` over the launch's lanes.

    ``op`` is a method of the thread context or of a
    :class:`~repro.simt.shared.SharedArray`.  While a ``while_active``
    loop has dropped dead warps, the wrapper spreads the lane-vector
    arguments and the activity mask back to the full layout (dropped
    lanes inactive), runs ``op`` there and compacts a lane-vector
    result; otherwise it calls ``op`` directly.
    """

    @functools.wraps(op)
    def run(owner, *args, **kwargs):
        ctx = owner if isinstance(owner, MemoryOpsMixin) else owner.ctx
        lanes = ctx._lane_map
        if lanes is None:
            return op(owner, *args, **kwargs)
        n = ctx.n_blocks * ctx.padded_block_size
        spread = functools.partial(_spread, ctx, lanes, n)
        args = tuple(map(spread, args))
        kwargs = {k: spread(v) for k, v in kwargs.items()}
        layout, mask = ctx._layout(), ctx._mask
        full_mask = np.zeros(n, dtype=bool)
        full_mask[lanes] = mask
        ctx._set_layout(ctx._grid_layout)
        ctx._mask = full_mask
        try:
            out = op(owner, *args, **kwargs)
        finally:
            ctx._set_layout(layout)
            ctx._mask = mask
        return LaneVec(ctx, out.data[lanes]) if isinstance(out, LaneVec) else out

    return run


def _spread(ctx, lanes: np.ndarray, n: int, value):
    """``value`` with each lane vector in it scattered to ``n`` grid lanes."""
    if isinstance(value, tuple):
        return tuple(_spread(ctx, lanes, n, v) for v in value)
    data = value.data if isinstance(value, LaneVec) else value
    if not isinstance(data, np.ndarray) or data.ndim == 0:
        return value
    if data.shape != lanes.shape:
        raise KernelRuntimeError(
            f"memory operand of shape {data.shape} inside a compacted "
            f"while_active loop of {lanes.size} lanes; {_CARRY_HINT}"
        )
    full = np.zeros(n, dtype=data.dtype)
    full[lanes] = data
    return LaneVec(ctx, full) if isinstance(value, LaneVec) else full


class MemoryOpsMixin:
    """Global/constant/texture memory methods for the thread context."""

    # Attributes provided by ThreadContext
    gpu: object
    stats: object
    sanitizer: object
    dispatch: object
    total_lanes: int
    warp_size: int
    n_blocks: int
    padded_block_size: int

    def _memcheck(self):
        """The active sanitizer if memcheck is enabled, else None."""
        san = self.sanitizer
        return san if san is not None and san.enabled("memcheck") else None

    # ------------------------------------------------------------------
    def _index_data(self, index) -> np.ndarray:
        if isinstance(index, LaneVec):
            idx = index.data
        else:
            idx = np.asarray(index)
        if idx.shape == ():
            idx = np.broadcast_to(idx, (self.total_lanes,))
        if idx.shape != (self.total_lanes,):
            raise KernelRuntimeError(
                f"index of shape {idx.shape} is not a lane vector "
                f"({self.total_lanes} lanes)"
            )
        return idx.astype(np.int64, copy=False)

    def _checked_safe_index(self, arr_size: int, idx: np.ndarray, what: str) -> np.ndarray:
        mask = self._mask
        if mask.any():
            act = idx[mask]
            lo = act.min()
            hi = act.max()
            if lo < 0 or hi >= arr_size:
                bad = int(lo if lo < 0 else hi)
                raise InvalidAddressError(
                    f"{what}: lane index {bad} out of range for "
                    f"{arr_size}-element array"
                )
        return np.where(mask, idx, 0)

    def _global_access(
        self,
        arr: DeviceArray,
        index,
        *,
        space: str,
        is_store: bool,
        label: str,
        flat_override: np.ndarray | None = None,
    ):
        """Analyze + record one access; returns (safe flat index, mask).

        With memcheck enabled, out-of-bounds lanes become findings and
        are dropped from the returned mask instead of raising — the
        kernel keeps running, as under ``compute-sanitizer``.
        """
        idx = flat_override if flat_override is not None else self._index_data(index)
        san = self._memcheck()
        if san is not None:
            mask = san.check_global_bounds(
                self, arr, idx, self._mask, label or space, is_store
            )
            idx_safe = np.where(mask, idx, 0)
        else:
            idx_safe = self._checked_safe_index(arr.size, idx, label or space)
            mask = self._mask
        if not mask.any():
            return idx_safe, mask

        addrs = arr.base_addr + idx_safe * arr.itemsize
        summary = self.dispatch.analyze_global(
            addrs,
            mask,
            arr.itemsize,
            warp_size=self.warp_size,
            transaction_bytes=self.gpu.transaction_bytes,
            sector_bytes=self.gpu.sector_bytes,
        )
        self.stats.trace.record(
            space=space,
            is_store=is_store,
            itemsize=arr.itemsize,
            summary=summary,
            addrs=addrs,
            mask=mask,
            label=label,
        )
        st = self.stats
        st.global_requests += summary.n_warps
        st.transactions += summary.transactions
        st.sectors_requested += summary.sectors
        st.bytes_requested += summary.bytes_requested
        # LSU occupancy: one cycle per transaction (128B/cycle/SM peak).
        st.issue_cycles += summary.transactions
        st.warp_instructions += summary.n_warps
        st.thread_instructions += summary.n_active_lanes

        if arr.alloc.managed:
            pages = np.unique((addrs[mask] - arr.alloc.addr) // self.gpu.um_page_bytes)
            reads, writes = self.managed_touched.setdefault(
                arr.alloc.addr, (set(), set())
            )
            (writes if is_store else reads).update(pages.tolist())
        return idx_safe, mask

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    @full_grid
    def load(self, arr: DeviceArray, index, label: str = "") -> LaneVec:
        """Global-memory gather: ``value = arr[index]`` per lane."""
        idx_safe, mask = self._global_access(
            arr, index, space="global", is_store=False, label=label
        )
        san = self._memcheck()
        if san is not None:
            san.check_uninit_read(self, arr, idx_safe, mask, label)
        flat = arr.view.reshape(-1)
        values = flat[idx_safe]
        if not mask.all():
            values = np.where(mask, values, np.zeros((), dtype=arr.dtype))
        return self._lv(values)

    @full_grid
    def store(self, arr: DeviceArray, index, value, label: str = "") -> None:
        """Global-memory scatter: ``arr[index] = value`` for active lanes."""
        idx_safe, mask = self._global_access(
            arr, index, space="global", is_store=True, label=label
        )
        if not mask.any():
            return
        val = self.as_lanevec(value).data.astype(arr.dtype, copy=False)
        flat = arr.view.reshape(-1)
        flat[idx_safe[mask]] = val[mask]
        if arr.alloc.init_mask is not None:
            arr.mark_initialized(idx_safe[mask])

    @full_grid
    def load_readonly(self, arr: DeviceArray, index, label: str = "") -> LaneVec:
        """``__ldg``-style load through the read-only/texture data path.

        On Kepler this is the only way global data reaches an on-SM
        cache; on Volta+ it is equivalent to a normal cached load.
        """
        idx_safe, mask = self._global_access(
            arr, index, space="texture", is_store=False, label=label or "ldg"
        )
        san = self._memcheck()
        if san is not None:
            san.check_uninit_read(self, arr, idx_safe, mask, label or "ldg")
        flat = arr.view.reshape(-1)
        values = flat[idx_safe]
        if not mask.all():
            values = np.where(mask, values, np.zeros((), dtype=arr.dtype))
        return self._lv(values)

    @full_grid
    def atomic_add(self, arr: DeviceArray, index, value, label: str = "") -> LaneVec:
        """``atomicAdd``: returns the pre-update value per active lane.

        Lanes of one warp updating the same address serialize; the
        charge is one cycle per active lane on top of the store-like
        transaction cost, a simple upper-bound contention model.
        """
        idx_safe, mask = self._global_access(
            arr, index, space="global", is_store=True, label=label or "atomicAdd"
        )
        val = self.as_lanevec(value).data.astype(arr.dtype, copy=False)
        flat = arr.view.reshape(-1)
        if not mask.any():
            return self._lv(np.zeros(self.total_lanes, dtype=arr.dtype))
        # Pre-values with intra-warp serialization order = lane order.
        order = np.flatnonzero(mask)
        pre = np.zeros(self.total_lanes, dtype=arr.dtype)
        # Vectorized prefix within duplicate groups would be overkill for
        # the handful of atomics our kernels issue; do it exactly.
        for lane in order.tolist():
            a = idx_safe[lane]
            pre[lane] = flat[a]
            flat[a] += val[lane]
        st = self.stats
        st.atomics += int(mask.sum())
        st.issue_cycles += float(mask.sum())  # serialization cycles
        if arr.alloc.init_mask is not None:
            arr.mark_initialized(idx_safe[mask])
        return self._lv(pre)

    # ------------------------------------------------------------------
    # Constant memory
    # ------------------------------------------------------------------
    @full_grid
    def load_constant(self, arr: DeviceArray, index, label: str = "") -> LaneVec:
        """Constant-memory load.

        The constant cache broadcasts one address per cycle to a warp:
        a uniform read costs one cycle; lanes reading *different*
        addresses replay once per distinct address (paper §V-B's
        caution against scattering reads over constant memory).
        The constant bank is assumed cache-resident (<= 64 KiB).
        """
        idx = self._index_data(index)
        san = self._memcheck()
        if san is not None:
            mask = san.check_global_bounds(
                self, arr, idx, self._mask, label or "constant", False
            )
            idx_safe = np.where(mask, idx, 0)
            san.check_uninit_read(self, arr, idx_safe, mask, label or "constant")
        else:
            idx_safe = self._checked_safe_index(arr.size, idx, label or "constant")
            mask = self._mask
        if mask.any():
            i2d, m2d = lanes_to_warps(idx_safe, mask, self.warp_size)
            distinct = warp_distinct_counts(i2d, m2d)
            passes = float(distinct.sum())
            n_warps = int((distinct > 0).sum())
            st = self.stats
            st.constant_requests += n_warps
            st.constant_replays += passes - n_warps
            st.issue_cycles += passes
            st.warp_instructions += n_warps
            st.thread_instructions += int(mask.sum())
        flat = arr.view.reshape(-1)
        values = flat[idx_safe]
        if not mask.all():
            values = np.where(mask, values, np.zeros((), dtype=arr.dtype))
        return self._lv(values)

    # ------------------------------------------------------------------
    # Texture fetches
    # ------------------------------------------------------------------
    @full_grid
    def tex1d(self, view: TextureView, x, label: str = "") -> LaneVec:
        """1-D texture fetch (clamp addressing)."""
        xi = self._index_data(x)
        flat = view.flat_index_1d(xi)
        return self._texture_fetch(view, flat, label or "tex1D")

    @full_grid
    def tex2d(self, view: TextureView, x, y, label: str = "") -> LaneVec:
        """2-D texture fetch through the block-linear layout."""
        xi = self._index_data(x)
        yi = self._index_data(y)
        # address computation: a couple of integer ops in the kernel
        self.charge("int", count=2)
        flat = view.flat_index_2d(xi, yi)
        return self._texture_fetch(view, flat, label or "tex2D")

    def _texture_fetch(self, view: TextureView, flat: np.ndarray, label: str) -> LaneVec:
        arr = view.storage
        idx_safe, mask = self._global_access(
            arr,
            None,
            space="texture",
            is_store=False,
            label=label,
            flat_override=flat,
        )
        data = arr.view.reshape(-1)[idx_safe]
        if not mask.all():
            data = np.where(mask, data, np.zeros((), dtype=arr.dtype))
        return self._lv(data)
