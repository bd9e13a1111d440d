"""The sanitizer tools: memcheck, racecheck, synccheck, leakcheck.

The simulator's analog of NVIDIA ``compute-sanitizer``: a
:class:`Sanitizer` instance is attached to a launch (per-launch or via
``CudaLite(sanitize=...)``) and the execution layers call its hooks at
the points where hardware tools would instrument the SASS:

* **memcheck** — every global/constant access is checked against the
  target array's extent *and* its logical red-zone extent
  (:attr:`~repro.mem.buffer.DeviceArray.logical_size`), and loads are
  checked against the allocation's initialized-byte shadow.  Instead of
  the simulator's bare :class:`InvalidAddressError`, out-of-bounds
  lanes produce findings with block/thread coordinates and the
  offending byte address, the access is suppressed for those lanes,
  and the kernel keeps running so later bugs are found in one pass.
* **racecheck** — shared-memory accesses are logged per block between
  ``__syncthreads()`` barriers; read-after-write, write-after-read and
  write-after-write hazards between different threads (of different
  warps, under the default warp-synchronous assumption) are reported.
* **synccheck** — a barrier reached while a warp's active mask is
  split (some threads of the block cannot arrive) is reported instead
  of raised.
* **leakcheck** — allocations still live at context teardown
  (:meth:`CudaLite.close` or session exit) are reported.

Findings accumulate in the sanitizer across launches; read them back
with :meth:`Sanitizer.report`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.common.errors import SanitizerError
from repro.sanitize.findings import SanitizerFinding, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.buffer import DeviceArray
    from repro.simt.context import ThreadContext
    from repro.simt.shared import SharedArray

__all__ = ["Sanitizer", "TOOLS"]

#: Every tool, in report order.  "all" selects the whole set.
TOOLS = ("memcheck", "racecheck", "synccheck", "leakcheck")


def _coords(ctx: "ThreadContext", lane: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(blockIdx, threadIdx) of one flat lane index."""
    b = int(ctx._block_of_lane[lane])
    t = int(ctx._lane_in_block[lane])
    g, bd = ctx.grid, ctx.block
    block = (b % g.x, (b // g.x) % g.y, b // (g.x * g.y))
    thread = (t % bd.x, (t // bd.x) % bd.y, t // (bd.x * bd.y))
    return block, thread


class Sanitizer:
    """Collects correctness findings from instrumented execution.

    Parameters
    ----------
    tools:
        ``"all"``, one tool name, or an iterable of tool names.
    max_findings_per_kernel:
        Findings beyond this cap (per kernel name) are counted as
        suppressed rather than stored, so a bug inside a hot loop does
        not produce millions of identical reports.
    warp_synchronous:
        When True (default), racecheck does not report hazards between
        lanes of the same warp — the classic warp-synchronous
        programming assumption lock-step execution guarantees.
    """

    def __init__(
        self,
        tools: str | Iterable[str] = "all",
        *,
        max_findings_per_kernel: int = 25,
        warp_synchronous: bool = True,
    ) -> None:
        if isinstance(tools, str):
            tools = TOOLS if tools == "all" else (tools,)
        self.tools = tuple(tools)
        unknown = set(self.tools) - set(TOOLS)
        if unknown:
            raise SanitizerError(
                f"unknown sanitizer tool(s) {sorted(unknown)}; "
                f"available: {', '.join(TOOLS)}"
            )
        self.max_findings_per_kernel = max_findings_per_kernel
        self.warp_synchronous = warp_synchronous
        self.findings: list[SanitizerFinding] = []
        self.suppressed = 0
        self._seen: set[tuple] = set()
        self._per_kernel: dict[str, int] = {}
        #: one token per runtime swept by leakcheck, so each runtime's
        #: leaks are reported even where addresses repeat across runtimes
        self._leak_scopes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: optional activity hub; each stored finding is forwarded as a
        #: driver-phase ``sanitizer`` activity record
        self.hub = None

    # ------------------------------------------------------------------
    def enabled(self, tool: str) -> bool:
        return tool in self.tools

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            tools=self.tools, findings=list(self.findings), suppressed=self.suppressed
        )

    def _emit(
        self,
        tool: str,
        rule: str,
        severity: str,
        message: str,
        *,
        ctx: "ThreadContext | None" = None,
        lane: int | None = None,
        address: int | None = None,
        kernel: str | None = None,
        scope: object = None,
    ) -> bool:
        kernel = kernel if kernel is not None else (ctx.stats.name if ctx else "")
        block = thread = None
        if ctx is not None and lane is not None:
            block, thread = _coords(ctx, lane)
        key = (tool, rule, kernel, block, thread, address, scope)
        if key in self._seen:
            return False
        if self._per_kernel.get(kernel, 0) >= self.max_findings_per_kernel:
            self.suppressed += 1
            return False
        self._seen.add(key)
        self._per_kernel[kernel] = self._per_kernel.get(kernel, 0) + 1
        self.findings.append(
            SanitizerFinding(
                tool=tool,
                rule=rule,
                severity=severity,
                kernel=kernel,
                message=message,
                block=block,
                thread=thread,
                address=address,
            )
        )
        hub = self.hub
        if hub is not None and hub.wants("sanitizer"):
            hub.emit(
                "sanitizer",
                f"{tool}:{rule}",
                track="sanitizer",
                severity=severity,
                kernel=kernel,
                message=message,
                address=address,
            )
        return True

    # ==================================================================
    # memcheck
    # ==================================================================
    def check_global_bounds(
        self,
        ctx: "ThreadContext",
        arr: "DeviceArray",
        idx: np.ndarray,
        mask: np.ndarray,
        label: str,
        is_store: bool,
    ) -> np.ndarray:
        """Report out-of-bounds lanes; return the mask with them removed.

        Two classes of violation:

        * *hard* OOB — outside the array view entirely (the simulator
          would raise :class:`InvalidAddressError` without memcheck);
          the access is suppressed for those lanes.
        * *red-zone* OOB — past :attr:`DeviceArray.logical_size` but
          still inside the backing storage.  Hardware silently corrupts
          the neighbouring bytes, and so does the simulator; memcheck
          reports it and lets the write land, exactly like
          ``compute-sanitizer`` patching past an error.
        """
        kind = "write" if is_store else "read"
        what = f" ({label})" if label else ""
        hard = mask & ((idx < 0) | (idx >= arr.size))
        if hard.any():
            for lane in np.flatnonzero(hard)[: self.max_findings_per_kernel]:
                i = int(idx[lane])
                self._emit(
                    "memcheck",
                    f"global-oob-{kind}",
                    "critical",
                    f"invalid global {kind} of {arr.itemsize} bytes{what}: "
                    f"index {i} outside array of {arr.size} elements",
                    ctx=ctx,
                    lane=int(lane),
                    address=arr.base_addr + i * arr.itemsize,
                )
            mask = mask & ~hard
        logical = arr.logical_size
        if logical is not None:
            red = mask & (idx >= logical)
            for lane in np.flatnonzero(red)[: self.max_findings_per_kernel]:
                i = int(idx[lane])
                self._emit(
                    "memcheck",
                    f"global-oob-{kind}",
                    "critical",
                    f"global {kind} of {arr.itemsize} bytes{what} past the "
                    f"logical extent: index {i} >= {logical} (red zone)",
                    ctx=ctx,
                    lane=int(lane),
                    address=arr.base_addr + i * arr.itemsize,
                )
        return mask

    def check_uninit_read(
        self,
        ctx: "ThreadContext",
        arr: "DeviceArray",
        idx_safe: np.ndarray,
        mask: np.ndarray,
        label: str,
    ) -> None:
        """Report lanes reading bytes no copy or store ever wrote."""
        im = arr.alloc.init_mask
        if im is None or getattr(arr.alloc, "_all_init", False):
            return
        if im.all():
            arr.alloc._all_init = True  # monotonic; skip future scans
            return
        lanes = np.flatnonzero(mask)
        if not lanes.size:
            return
        offs = arr.byte_offset + idx_safe[lanes] * arr.itemsize
        ok = im[offs[:, None] + np.arange(arr.itemsize)].all(axis=1)
        what = f" ({label})" if label else ""
        for lane, off in zip(lanes[~ok][: self.max_findings_per_kernel],
                             offs[~ok][: self.max_findings_per_kernel]):
            self._emit(
                "memcheck",
                "uninitialized-read",
                "warning",
                f"global read of {arr.itemsize} uninitialized bytes{what}",
                ctx=ctx,
                lane=int(lane),
                address=arr.alloc.addr + int(off),
            )

    def check_shared_bounds(
        self,
        ctx: "ThreadContext",
        shared: "SharedArray",
        flat: np.ndarray,
        mask: np.ndarray,
        is_store: bool,
    ) -> np.ndarray:
        """Shared-memory analog of :meth:`check_global_bounds`."""
        kind = "write" if is_store else "read"
        bad = mask & ((flat < 0) | (flat >= shared.elems_per_block))
        if bad.any():
            for lane in np.flatnonzero(bad)[: self.max_findings_per_kernel]:
                self._emit(
                    "memcheck",
                    f"shared-oob-{kind}",
                    "critical",
                    f"invalid shared {kind}: index {int(flat[lane])} outside "
                    f"{shared.elems_per_block}-element block array",
                    ctx=ctx,
                    lane=int(lane),
                )
            mask = mask & ~bad
        return mask

    # ==================================================================
    # racecheck
    # ==================================================================
    def _race_state(self, shared: "SharedArray") -> tuple[np.ndarray, np.ndarray]:
        w = getattr(shared, "_race_w", None)
        if w is None:
            n = shared.ctx.n_blocks * shared.elems_per_block
            w = np.full(n, -1, dtype=np.int64)
            r = np.full(n, -1, dtype=np.int64)
            shared._race_w, shared._race_r = w, r
        return shared._race_w, shared._race_r

    def _hazard(self, prev: np.ndarray, lanes: np.ndarray, ws: int) -> np.ndarray:
        other = (prev >= 0) & (prev != lanes)
        if self.warp_synchronous:
            other &= (prev // ws) != (lanes // ws)
        return other

    def _emit_hazard(
        self,
        ctx: "ThreadContext",
        shared: "SharedArray",
        rule: str,
        verb: str,
        lanes: np.ndarray,
        elems: np.ndarray,
        prev: np.ndarray,
    ) -> None:
        for lane, e, p in zip(
            lanes[: self.max_findings_per_kernel],
            elems[: self.max_findings_per_kernel],
            prev[: self.max_findings_per_kernel],
        ):
            _, other_thread = _coords(ctx, int(p))
            self._emit(
                "racecheck",
                rule,
                "critical",
                f"shared-memory hazard: {verb} of element "
                f"{int(e) % shared.elems_per_block} of a "
                f"{shared.shape} {shared.dtype} array without an "
                f"intervening __syncthreads(); conflicts with thread "
                f"({other_thread[0]},{other_thread[1]},{other_thread[2]})",
                ctx=ctx,
                lane=int(lane),
            )

    def shared_access(
        self,
        ctx: "ThreadContext",
        shared: "SharedArray",
        gflat: np.ndarray,
        mask: np.ndarray,
        is_store: bool,
    ) -> None:
        """Log one shared access and report barrier-less hazards.

        ``gflat`` is the block-offset flat element index per lane (two
        lanes of different blocks never alias, so all hazards found are
        intra-block, as on hardware).
        """
        lanes = np.flatnonzero(mask)
        if not lanes.size:
            return
        w, r = self._race_state(shared)
        g = gflat[lanes]
        ws = ctx.warp_size
        if is_store:
            prev_w, prev_r = w[g], r[g]
            ww = self._hazard(prev_w, lanes, ws)
            war = self._hazard(prev_r, lanes, ws)
            self._emit_hazard(
                ctx, shared, "write-after-write", "write", lanes[ww], g[ww], prev_w[ww]
            )
            self._emit_hazard(
                ctx, shared, "write-after-read", "write", lanes[war], g[war], prev_r[war]
            )
            # same-instruction collisions: several lanes storing to one
            # element land in nondeterministic order on hardware
            order = np.argsort(g, kind="stable")
            gs, ls = g[order], lanes[order]
            dup = np.flatnonzero(gs[1:] == gs[:-1])
            if dup.size:
                collide = self._hazard(ls[dup], ls[dup + 1], ws)
                self._emit_hazard(
                    ctx, shared, "write-after-write", "simultaneous write",
                    ls[dup + 1][collide], gs[dup][collide], ls[dup][collide],
                )
            w[g] = lanes
        else:
            prev_w = w[g]
            raw = self._hazard(prev_w, lanes, ws)
            self._emit_hazard(
                ctx, shared, "read-after-write", "read", lanes[raw], g[raw], prev_w[raw]
            )
            r[g] = lanes

    def on_barrier(self, ctx: "ThreadContext") -> None:
        """A ``__syncthreads()`` executed: close the hazard epoch."""
        for shared in ctx._shared_arrays:
            w = getattr(shared, "_race_w", None)
            if w is not None:
                w.fill(-1)
                shared._race_r.fill(-1)

    # ==================================================================
    # synccheck
    # ==================================================================
    def barrier_divergence(self, ctx: "ThreadContext") -> None:
        """Report each warp whose active mask is split at a barrier."""
        ws = ctx.warp_size
        m2d = ctx.mask.reshape(-1, ws)
        b2d = ctx._base_mask.reshape(-1, ws)
        missing = b2d & ~m2d
        for widx in np.flatnonzero(missing.any(axis=1))[: self.max_findings_per_kernel]:
            lane = int(widx) * ws + int(np.argmax(missing[widx]))
            self._emit(
                "synccheck",
                "divergent-barrier",
                "critical",
                "__syncthreads() reached under divergence: this thread "
                f"cannot arrive at the barrier (warp {int(widx)} has a "
                "split active mask)",
                ctx=ctx,
                lane=lane,
            )

    # ==================================================================
    # leakcheck
    # ==================================================================
    def check_leaks(self, runtime) -> None:
        """Report allocations still live at context teardown.

        Each runtime gets its own summary and per-allocation findings:
        their deduplication key names the runtime, because two runtimes
        hand out the same device addresses.
        """
        live = runtime.allocator.iter_live()
        if not live:
            return
        scope = self._leak_scopes.setdefault(runtime, object())
        total = sum(a.nbytes for a in live)
        self._emit(
            "leakcheck",
            "leaked-allocations",
            "warning",
            f"{len(live)} allocation(s) totalling {total} bytes never freed "
            "at context teardown",
            kernel="",
            scope=scope,
        )
        for alloc in live[:8]:
            self._emit(
                "leakcheck",
                "leaked-allocation",
                "info",
                f"leaked allocation of {alloc.nbytes} bytes",
                kernel="",
                address=alloc.addr,
                scope=scope,
            )
