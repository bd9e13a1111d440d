"""Device memory operations of the thread context.

This mixin implements the global/constant/texture access methods of
:class:`~repro.simt.context.ThreadContext`.  Every access does three
things at once:

1. *functional execution* — vectorized gather/scatter against the
   backing NumPy buffers, honouring the current activity mask;
2. *coalescing analysis* — lane byte-addresses are run through the
   context's :mod:`repro.exec.dispatch` backend (reference analyzer, or
   the jit's fast path and replay, identical results) and appended to the
   launch's access trace for later cache resolution;
3. *issue accounting* — the LSU is occupied for one cycle per
   transaction, so a fully uncoalesced access (32 transactions) costs
   a warp 32x the issue slots of a coalesced one, before any DRAM
   bandwidth effect.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import InvalidAddressError, KernelRuntimeError
from repro.mem.buffer import DeviceArray
from repro.mem.coalesce import lanes_to_warps, warp_distinct_counts
from repro.simt.lanevec import LaneVec
from repro.simt.texture import TextureView

__all__ = ["MemoryOpsMixin"]


class MemoryOpsMixin:
    """Global/constant/texture memory methods for the thread context."""

    # Attributes provided by ThreadContext
    gpu: object
    stats: object
    sanitizer: object
    dispatch: object
    total_lanes: int
    warp_size: int

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
    def tex1d(self, view: TextureView, x, label: str = "") -> LaneVec:
        """1-D texture fetch (clamp addressing)."""
        xi = self._index_data(x)
        flat = view.flat_index_1d(xi)
        return self._texture_fetch(view, flat, label or "tex1D")

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
