"""Per-block shared memory with bank-conflict accounting.

``__shared__`` arrays are private to a block; the simulator backs each
declaration with one NumPy buffer per block and addresses it with
within-block indices.  Because blocks are padded to whole warps in the
lane layout, a warp's lanes always belong to one block and the
bank-conflict analysis can group lanes by warp directly.

Every load/store is charged its serialized pass count from
:func:`repro.mem.banks.analyze_shared_access`: a conflict-free access
costs one cycle per warp, an ``n``-way conflicted one costs ``n``
(paper §IV-F).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import InvalidAddressError, LaunchConfigError
from repro.simt.lanevec import LaneVec
from repro.simt.memory_ops import full_grid

__all__ = ["SharedArray"]


class SharedArray:
    """A ``__shared__`` array instantiated once per block."""

    def __init__(self, ctx, shape: tuple[int, ...] | int, dtype) -> None:
        self.ctx = ctx
        if isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.elems_per_block = 1
        for s in self.shape:
            if s <= 0:
                raise LaunchConfigError(f"shared array dimension {s} invalid")
            self.elems_per_block *= s
        self.nbytes_per_block = self.elems_per_block * self.dtype.itemsize
        if (
            ctx.shared_bytes_per_block + self.nbytes_per_block
            > ctx.gpu.shared_mem_per_block
        ):
            raise LaunchConfigError(
                f"shared memory over per-block limit: "
                f"{ctx.shared_bytes_per_block + self.nbytes_per_block} > "
                f"{ctx.gpu.shared_mem_per_block} bytes"
            )
        ctx.shared_bytes_per_block += self.nbytes_per_block
        ctx._shared_arrays.append(self)
        self._data = np.zeros(ctx.n_blocks * self.elems_per_block, dtype=self.dtype)

    # ------------------------------------------------------------------
    def _flatten_index(self, index) -> np.ndarray:
        """Combine an index (lane vector or tuple of them) to flat form."""
        ctx = self.ctx
        if isinstance(index, tuple):
            if len(index) != len(self.shape):
                raise InvalidAddressError(
                    f"{len(index)}-d index into {len(self.shape)}-d shared array"
                )
            flat = np.zeros(ctx.total_lanes, dtype=np.int64)
            for dim, part in enumerate(index):
                d = part.data if isinstance(part, LaneVec) else np.asarray(part)
                flat = flat * self.shape[dim] + d.astype(np.int64)
                if dim:
                    ctx.charge("int")  # address arithmetic per extra dim
            return flat
        d = index.data if isinstance(index, LaneVec) else np.asarray(index)
        if d.shape == ():
            d = np.broadcast_to(d, (ctx.total_lanes,))
        return d.astype(np.int64, copy=False)

    def _account(
        self, flat: np.ndarray, is_store: bool = False, *, charge: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-check an access, charge its bank passes unless ``charge``
        is false, and show it to racecheck; returns (global index, mask)."""
        ctx = self.ctx
        san = ctx.sanitizer
        memcheck = san is not None and san.enabled("memcheck")
        mask = ctx.mask
        if memcheck:
            mask = san.check_shared_bounds(ctx, self, flat, mask, is_store)
        elif mask.any():
            act = flat[mask]
            if act.min() < 0 or act.max() >= self.elems_per_block:
                bad = int(act.min() if act.min() < 0 else act.max())
                raise InvalidAddressError(
                    f"shared index {bad} out of range for "
                    f"{self.elems_per_block}-element block array"
                )
        flat_safe = np.where(mask, flat, 0)
        if charge and mask.any():
            summary = ctx.dispatch.analyze_shared(
                flat_safe * self.dtype.itemsize,
                mask,
                warp_size=ctx.warp_size,
                nbanks=ctx.gpu.shared_banks,
                bank_bytes=ctx.gpu.shared_bank_bytes,
            )
            st = ctx.stats
            st.shared_requests += summary.n_warps
            st.shared_passes += summary.passes
            st.bank_conflict_extra += summary.conflict_extra
            st.shared_bytes += summary.n_active_lanes * self.dtype.itemsize
            st.issue_cycles += float(summary.passes)
            st.warp_instructions += summary.n_warps
            st.thread_instructions += summary.n_active_lanes
        global_flat = ctx._block_of_lane * self.elems_per_block + flat_safe
        if san is not None and san.enabled("racecheck"):
            san.shared_access(ctx, self, global_flat, mask, is_store)
        return global_flat, mask

    # ------------------------------------------------------------------
    @full_grid
    def load(self, index) -> LaneVec:
        """Shared-memory gather for active lanes."""
        flat = self._flatten_index(index)
        gflat, mask = self._account(flat, is_store=False)
        values = self._data[gflat]
        if not mask.all():
            values = np.where(mask, values, np.zeros((), dtype=self.dtype))
        return self.ctx._lv(values)

    @full_grid
    def store(self, index, value) -> None:
        """Shared-memory scatter for active lanes."""
        flat = self._flatten_index(index)
        gflat, mask = self._account(flat, is_store=True)
        if not mask.any():
            return
        val = self.ctx.as_lanevec(value).data.astype(self.dtype, copy=False)
        self._data[gflat[mask]] = val[mask]

    def block_view(self, block_linear: int) -> np.ndarray:
        """Debug/test access to one block's shared buffer (shaped)."""
        start = block_linear * self.elems_per_block
        return self._data[start : start + self.elems_per_block].reshape(self.shape)
