"""CudaLite: the CUDA-runtime-shaped front door of the simulator.

One :class:`CudaLite` instance owns a simulated machine (GPU + link):
device memory, streams and events, kernel launching, explicit and
unified-memory transfers, task graphs, and the timeline/profiler.  The
method names track the CUDA runtime API they stand in for::

    rt = CudaLite(CARINA)                      # V100 system
    x = rt.to_device(host_x)                   # cudaMalloc + cudaMemcpy
    y = rt.malloc(n)                           # cudaMalloc
    rt.launch(axpy, grid, block, x, y, n, a)   # <<<grid, block>>>
    elapsed = rt.synchronize()                 # cudaDeviceSynchronize

Functional effects (actual data movement between NumPy buffers) happen
at call time in program order; *durations* are resolved by the
discrete-event engine at :meth:`synchronize`, which is when overlap
across streams is decided.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Sequence

import numpy as np

from repro.arch.presets import PCIE3_X16
from repro.arch.spec import GPUSpec, SystemSpec
from repro.common.errors import (
    AllocationError,
    GraphError,
    InvalidAddressError,
    KernelRuntimeError,
    LaunchConfigError,
    MemoryError_,
    StreamError,
    cuda_error_name,
)
from repro.exec.dispatch import current_backend_name, make_dispatcher
from repro.faults.plan import FaultLog, FaultPlan, RetryPolicy
from repro.host.engine import DeviceEngine
from repro.host.graph import ExecGraph, GraphNode, TaskGraph
from repro.host.stream import Event, Op, Stream
from repro.host.timeline import Timeline
from repro.host.unified import ManagedState
from repro.mem.allocator import DeviceAllocator
from repro.mem.buffer import DeviceArray
from repro.sanitize.core import Sanitizer
from repro.sanitize.session import current_session
from repro.simt.dim3 import Dim3
from repro.simt.executor import run_kernel
from repro.simt.kernel import KernelDef
from repro.simt.stats import KernelStats
from repro.simt.texture import TextureView
from repro.timing.model import estimate_kernel_time
from repro.timing.occupancy import compute_occupancy

__all__ = ["CudaLite"]

_CONSTANT_BANK_BYTES = 64 * 1024


#: Error classes that poison the context (CUDA sticky errors): once one
#: escapes a launch, every later API call fails until :meth:`reset`.
_STICKY_ERRORS = (KernelRuntimeError, InvalidAddressError)


class CudaLite:
    """A simulated GPU machine with a CUDA-runtime-style API.

    Parameters
    ----------
    system:
        Machine to simulate (GPU + link); defaults to CARINA (V100).
    sanitize:
        Attach a compute-sanitizer analog to every launch: ``"all"``,
        a tool name, an iterable of tool names, or a prepared
        :class:`~repro.sanitize.core.Sanitizer`.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` injecting deterministic
        failures into allocations, transfers and launches.
    watchdog_cycles:
        Issue-cycle budget per kernel (display-watchdog analog).
    retry:
        Backoff policy for transient transfer faults.
    backend:
        Memory-analysis execution backend: ``"reference"`` (the
        per-lane oracle) or ``"jit"`` (trace-JIT replay of the
        oracle's recorded answers; see :mod:`repro.jit`) — both with
        identical results (see :mod:`repro.exec`).  Defaults through
        :func:`repro.exec.use_backend` / ``REPRO_BACKEND`` to
        ``"reference"``.

    Inside a :func:`~repro.sanitize.session.sanitize_session` block, the
    session's sanitizer/faults/watchdog are the defaults for any of
    these left unset, and the runtime registers itself with the session
    so leakcheck can sweep it at session exit.
    """

    def __init__(
        self,
        system: SystemSpec | GPUSpec | None = None,
        *,
        sanitize: str | Sanitizer | Sequence[str] | None = None,
        faults: FaultPlan | None = None,
        watchdog_cycles: float | None = None,
        retry: RetryPolicy | None = None,
        hub=None,
        backend: str | None = None,
    ) -> None:
        if system is None:
            from repro.arch.presets import CARINA

            system = CARINA
        if isinstance(system, GPUSpec):
            system = SystemSpec(name=f"{system.name} system", gpu=system, link=PCIE3_X16)
        self.system = system
        self.gpu = system.gpu
        self.link = system.link

        session = current_session()
        if session is not None:
            if sanitize is None:
                sanitize = session.sanitizer
            if faults is None:
                faults = session.faults
            if watchdog_cycles is None:
                watchdog_cycles = session.watchdog_cycles
            if hub is None:
                hub = session.hub
            session.runtimes.append(self)
        self.sanitizer = self._as_sanitizer(sanitize)
        self.faults = faults
        self.fault_log = FaultLog()
        self.retry = retry or RetryPolicy()
        if watchdog_cycles is None and faults is not None:
            watchdog_cycles = faults.watchdog_cycles
        self.watchdog_cycles = watchdog_cycles
        self._sticky: Exception | None = None
        self._launch_ordinal = 0
        self._op_ordinal = 0

        #: resolved backend name and its per-runtime dispatcher; the
        #: dispatcher's counters feed the metrics ``execution`` section
        self.backend = current_backend_name(backend)
        self.dispatch = make_dispatcher(self.backend)

        self.timeline = Timeline()
        self.engine = DeviceEngine(system, self.timeline)
        self.engine.backend = self.backend
        track_init = self.sanitizer is not None and self.sanitizer.enabled("memcheck")
        self.allocator = DeviceAllocator(self.gpu.dram_size, track_init=track_init)
        self.default_stream = Stream(self, name="default stream")
        self.engine.register_stream(self.default_stream)
        self._managed: dict[int, ManagedState] = {}
        self._constant_bytes = 0
        self._capture: TaskGraph | None = None
        self.kernel_log: list[tuple[KernelStats, Op]] = []
        self.hub = None
        if hub is not None:
            self.attach_hub(hub)

    def attach_hub(self, hub) -> None:
        """Wire an :class:`~repro.prof.activity.ActivityHub` into every
        layer of this runtime: the engine (timed device records), the
        fault log and sanitizer (driver-phase records), and the launch
        path (``launch`` + ``counter`` records)."""
        self.hub = hub
        self.engine.hub = hub
        self.fault_log.hub = hub
        if self.sanitizer is not None:
            self.sanitizer.hub = hub
        if hasattr(self.dispatch, "hub"):
            # the jit dispatcher reports trace bailouts as activity
            self.dispatch.hub = hub

    @staticmethod
    def _as_sanitizer(sanitize) -> Sanitizer | None:
        if sanitize is None or isinstance(sanitize, Sanitizer):
            return sanitize
        return Sanitizer(sanitize)

    # ==================================================================
    # Sticky-error lifecycle
    # ==================================================================
    def _require_live(self) -> None:
        """Every API entry point fails once the context is poisoned."""
        exc = self._sticky
        if exc is not None:
            raise type(exc)(
                f"context is in a sticky error state ({cuda_error_name(exc)}: "
                f"{exc.args[0] if exc.args else exc}); call reset() to recover"
            )

    def _poison(self, exc: Exception) -> None:
        """Record a context-poisoning error (first one wins)."""
        if self._sticky is None and isinstance(exc, _STICKY_ERRORS):
            self._sticky = exc

    @property
    def sticky_error(self) -> Exception | None:
        """The error that poisoned the context, if any (``cudaGetLastError``)."""
        return self._sticky

    # ==================================================================
    # Memory management
    # ==================================================================
    def malloc(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float32,
        *,
        align: int = 256,
        offset: int = 0,
    ) -> DeviceArray:
        """``cudaMalloc``; ``offset`` deliberately mis-aligns (MemAlign)."""
        self._require_live()
        dt = np.dtype(dtype)
        size = int(np.prod(shape)) if not isinstance(shape, int) else shape
        nbytes = max(size, 1) * dt.itemsize
        self._maybe_fail_alloc(nbytes)
        alloc = self.allocator.malloc(nbytes, align=align, offset=offset)
        return DeviceArray(alloc, dt, shape)

    def _maybe_fail_alloc(self, nbytes: int) -> None:
        plan = self.faults
        if plan is not None and plan.alloc_should_fail(nbytes):
            self.fault_log.record("alloc-fail", f"{nbytes} bytes")
            # like a real cudaErrorMemoryAllocation, OOM is not sticky
            raise AllocationError(
                f"injected fault: allocation of {nbytes} bytes failed "
                f"(budget of {plan.alloc_fail_after_bytes} bytes exhausted)"
            )

    def malloc_managed(
        self, shape: int | tuple[int, ...], dtype: Any = np.float32
    ) -> DeviceArray:
        """``cudaMallocManaged``: unified memory, starts host-resident."""
        self._require_live()
        dt = np.dtype(dtype)
        size = int(np.prod(shape)) if not isinstance(shape, int) else shape
        self._maybe_fail_alloc(max(size, 1) * dt.itemsize)
        alloc = self.allocator.malloc(max(size, 1) * dt.itemsize, managed=True)
        self._managed[alloc.addr] = ManagedState(alloc, self.gpu.um_page_bytes)
        return DeviceArray(alloc, dt, shape)

    def free(self, arr: DeviceArray) -> None:
        """``cudaFree``."""
        self._managed.pop(arr.alloc.addr, None)
        self.allocator.free(arr.alloc)

    def to_device(
        self,
        host: np.ndarray,
        *,
        timed: bool = False,
        stream: Stream | None = None,
        pinned: bool = False,
        align: int = 256,
        offset: int = 0,
    ) -> DeviceArray:
        """Allocate + copy a host array in.  ``timed=False`` (default)
        treats it as setup outside the measured region."""
        host = np.ascontiguousarray(host)
        arr = self.malloc(host.shape, host.dtype, align=align, offset=offset)
        if timed:
            self.memcpy_h2d(arr, host, stream=stream, pinned=pinned)
        else:
            arr.fill_from(host)
        return arr

    def const_array(self, host: np.ndarray) -> DeviceArray:
        """Place read-only data in ``__constant__`` memory (≤ 64 KiB)."""
        host = np.ascontiguousarray(host)
        if self._constant_bytes + host.nbytes > _CONSTANT_BANK_BYTES:
            raise MemoryError_(
                f"constant memory exhausted: {host.nbytes} B requested, "
                f"{_CONSTANT_BANK_BYTES - self._constant_bytes} B free"
            )
        self._constant_bytes += host.nbytes
        arr = self.malloc(host.shape, host.dtype)
        arr.fill_from(host)
        return arr

    def texture_1d(self, host: np.ndarray) -> TextureView:
        """Bind a 1-D texture over a linear copy of ``host``."""
        host = np.ascontiguousarray(host)
        if host.ndim != 1:
            raise MemoryError_("texture_1d needs a 1-D host array")
        arr = self.to_device(host)
        return TextureView(arr, width=host.shape[0])

    def texture_2d(self, host: np.ndarray, *, tile: int | None = None) -> TextureView:
        """Bind a 2-D texture: data is stored block-linear (CUDA array)."""
        host = np.ascontiguousarray(host)
        if host.ndim != 2:
            raise MemoryError_("texture_2d needs a 2-D host array")
        from repro.simt.texture import DEFAULT_TILE

        t = tile or DEFAULT_TILE
        swizzled = TextureView.swizzle_2d(host, tile=t)
        arr = self.to_device(swizzled)
        h, w = host.shape
        return TextureView(arr, width=w, height=h, tile=t)

    # ==================================================================
    # Explicit copies
    # ==================================================================
    def _submit(self, op: Op) -> None:
        if self._capture is not None:
            raise StreamError(
                "internal: _submit during capture (use _submit_or_capture)"
            )
        self.engine.submit(op)

    def _copy_op(
        self, kind: str, name: str, nbytes: int, stream: Stream, pinned: bool
    ) -> Op:
        return Op(
            kind=kind,
            name=name,
            stream=stream,
            duration=self.link.transfer_time(nbytes, pinned=pinned),
            nbytes=nbytes,
        )

    def _transfer_faults(self, direction: str, nbytes: int, stream: Stream) -> str:
        """Resolve one transfer's injected outcome, retrying transient
        failures with backoff.

        Returns the final outcome (``"ok"`` or ``"corrupt"``) or raises
        :class:`MemoryError_` once the retry budget is exhausted.  Each
        retry occupies the stream with a simulated backoff delay.
        """
        plan = self.faults
        if plan is None or self._capture is not None:
            return "ok"
        attempts = 0
        while True:
            outcome = plan.transfer_outcome(direction)
            if outcome != "fail":
                if attempts:
                    self.fault_log.record(
                        f"{direction}-recovered", f"after {attempts} retr"
                        f"{'y' if attempts == 1 else 'ies'}"
                    )
                return outcome
            attempts += 1
            self.fault_log.record(
                f"{direction}-fail",
                f"attempt {attempts} of {self.retry.max_attempts} "
                f"({nbytes} bytes)",
            )
            if attempts >= self.retry.max_attempts:
                raise MemoryError_(
                    f"injected fault: {direction.upper()} transfer of {nbytes} "
                    f"bytes failed {attempts} times (retry budget exhausted)"
                )
            self._submit(
                Op(
                    kind="delay",
                    name=f"{direction} retry backoff #{attempts}",
                    stream=stream,
                    duration=self.retry.backoff(attempts - 1),
                )
            )

    def memcpy_h2d(
        self,
        dst: DeviceArray,
        host: np.ndarray,
        *,
        stream: Stream | None = None,
        pinned: bool = False,
        name: str | None = None,
    ) -> None:
        """``cudaMemcpy(HostToDevice)`` / ``cudaMemcpyAsync`` on a stream."""
        self._require_live()
        stream = stream or self.default_stream
        outcome = self._transfer_faults("h2d", dst.nbytes, stream)
        dst.fill_from(np.asarray(host, dtype=dst.dtype).reshape(dst.shape))
        if outcome == "corrupt":
            byte, bit = self.faults.corruption_site(dst.nbytes)
            dst.alloc.data[dst.byte_offset + byte] ^= np.uint8(1 << bit)
            self.fault_log.record("h2d-corrupt", f"bit {bit} of byte {byte}")
        st = self._managed.get(dst.alloc.addr)
        if st is not None:
            st.on_device[:] = True
            st.device_dirty[:] = False
        op = self._copy_op("h2d", name or f"H2D {dst.nbytes}B", dst.nbytes, stream, pinned)
        self._submit_or_capture(op)

    def memcpy_d2h(
        self,
        src: DeviceArray,
        *,
        stream: Stream | None = None,
        pinned: bool = False,
        name: str | None = None,
    ) -> np.ndarray:
        """``cudaMemcpy(DeviceToHost)``; returns the host copy."""
        self._require_live()
        stream = stream or self.default_stream
        outcome = self._transfer_faults("d2h", src.nbytes, stream)
        op = self._copy_op("d2h", name or f"D2H {src.nbytes}B", src.nbytes, stream, pinned)
        self._submit_or_capture(op)
        out = src.to_host()
        if outcome == "corrupt":
            byte, bit = self.faults.corruption_site(src.nbytes)
            out.reshape(-1).view(np.uint8)[byte] ^= np.uint8(1 << bit)
            self.fault_log.record("d2h-corrupt", f"bit {bit} of byte {byte}")
        return out

    def memcpy_d2d(
        self,
        dst: DeviceArray,
        src: DeviceArray,
        *,
        stream: Stream | None = None,
        name: str | None = None,
    ) -> None:
        """Device-to-device copy at DRAM bandwidth (read + write)."""
        self._require_live()
        if dst.nbytes != src.nbytes:
            raise MemoryError_("d2d size mismatch")
        stream = stream or self.default_stream
        dst.view[...] = src.view.reshape(dst.shape)
        dst.mark_initialized()
        dur = 2.0 * dst.nbytes / self.gpu.dram_bandwidth
        op = Op(kind="d2d", name=name or f"D2D {dst.nbytes}B", stream=stream, duration=dur, nbytes=dst.nbytes)
        self._submit_or_capture(op)

    # ==================================================================
    # Unified memory
    # ==================================================================
    def managed_to_host(self, arr: DeviceArray, *, stream: Stream | None = None) -> np.ndarray:
        """Host reads a managed array: dirty device pages migrate back."""
        st = self._managed.get(arr.alloc.addr)
        if st is None:
            raise MemoryError_("managed_to_host on a non-managed array")
        stream = stream or self.default_stream
        plan = st.plan_host_access(self.link, self.gpu)
        if not plan.empty:
            op = Op(
                kind="migrate",
                name=f"UM migrate {plan.n_pages}p ->host",
                stream=stream,
                duration=plan.duration,
                nbytes=plan.nbytes,
            )
            self._submit_or_capture(op)
        return arr.to_host()

    def mem_advise(self, arr: DeviceArray, advice: str) -> None:
        """``cudaMemAdvise`` on a managed allocation.

        Supported advice: ``"read_mostly"`` / ``"unset_read_mostly"``
        (the optimization the paper lists as future work: read-mostly
        pages stay duplicated across host reads instead of bouncing).
        """
        st = self._managed.get(arr.alloc.addr)
        if st is None:
            raise MemoryError_("mem_advise on a non-managed array")
        if advice == "read_mostly":
            st.read_mostly = True
        elif advice == "unset_read_mostly":
            st.read_mostly = False
        else:
            raise MemoryError_(f"unknown memory advice {advice!r}")

    def prefetch(self, arr: DeviceArray, *, stream: Stream | None = None) -> None:
        """``cudaMemPrefetchAsync`` of the whole allocation to device."""
        st = self._managed.get(arr.alloc.addr)
        if st is None:
            raise MemoryError_("prefetch on a non-managed array")
        stream = stream or self.default_stream
        plan = st.prefetch_all(self.link, self.gpu)
        if not plan.empty:
            op = Op(
                kind="migrate",
                name=f"UM prefetch {plan.n_pages}p ->dev",
                stream=stream,
                duration=plan.duration,
                nbytes=plan.nbytes,
            )
            self._submit_or_capture(op)

    # ==================================================================
    # Kernel launches
    # ==================================================================
    def _sm_demand(self, stats: KernelStats) -> int:
        occ = compute_occupancy(
            self.gpu,
            stats.block.size,
            shared_mem_per_block=stats.shared_mem_per_block,
            registers_per_thread=stats.registers_per_thread,
            n_blocks=stats.blocks,
        )
        return min(self.gpu.sm_count, -(-stats.blocks // occ.blocks_per_sm))

    def launch(
        self,
        kdef: KernelDef,
        grid: Dim3 | int | tuple[int, ...],
        block: Dim3 | int | tuple[int, ...],
        *args: Any,
        stream: Stream | None = None,
        launch_kind: str = "host",
        name: str | None = None,
    ) -> KernelStats:
        """``kernel<<<grid, block, 0, stream>>>(*args)``.

        Executes functionally now; the timing op is scheduled on the
        stream and resolved at :meth:`synchronize`.  Managed allocations
        touched by the kernel enqueue their page migrations first.

        A kernel-side failure — :class:`KernelRuntimeError` (including
        an injected abort or :class:`WatchdogTimeout`) or
        :class:`InvalidAddressError` — poisons the context: every later
        API call fails with the same error until :meth:`reset`.
        """
        self._require_live()
        stream = stream or self.default_stream
        ordinal = self._launch_ordinal
        self._launch_ordinal += 1
        plan = self.faults
        if (
            plan is not None
            and self._capture is None
            and plan.kernel_aborts(ordinal)
        ):
            kname = name or kdef.name
            self.fault_log.record("kernel-abort", f"{kname} (launch #{ordinal})")
            exc = KernelRuntimeError(
                f"injected fault: kernel {kname!r} (launch #{ordinal}) "
                "aborted mid-flight"
            )
            self._poison(exc)
            raise exc
        try:
            stats = run_kernel(
                kdef,
                grid,
                block,
                args,
                gpu=self.gpu,
                name=name,
                sanitizer=self.sanitizer,
                watchdog_cycles=self.watchdog_cycles,
                hub=self.hub,
                dispatch=self.dispatch,
            )
        except _STICKY_ERRORS as exc:
            self._poison(exc)
            raise
        self._enqueue_migrations(stats, stream)
        op = self._kernel_op(stats, stream, launch_kind)
        self._submit_or_capture(op, stats=stats)
        self.kernel_log.append((stats, op))
        return stats

    def launch_from_device(self, kdef: KernelDef, grid, block, *args: Any,
                           stream: Stream | None = None, name: str | None = None) -> KernelStats:
        """A dynamic-parallelism launch: device-side overhead, no host trip."""
        if not self.gpu.supports_dynamic_parallelism:
            raise LaunchConfigError(f"{self.gpu.name} lacks dynamic parallelism")
        return self.launch(
            kdef, grid, block, *args, stream=stream, launch_kind="device", name=name
        )

    def _kernel_op(self, stats: KernelStats, stream: Stream, launch_kind: str) -> Op:
        def timing_fn(granted_sms: int) -> float:
            return estimate_kernel_time(
                stats, self.gpu, launch_kind=launch_kind, sm_limit=granted_sms
            ).time_s

        return Op(
            kind="kernel",
            name=stats.name,
            stream=stream,
            timing_fn=timing_fn,
            sm_demand=self._sm_demand(stats),
            on_complete=self._counter_emitter(stats),
        )

    def _counter_emitter(self, stats: KernelStats):
        """Completion hook emitting a per-kernel ``counter`` activity
        record (the Chrome-trace occupancy/efficiency series).  Returns
        None when no subscriber wants counters, so unprofiled runs pay
        nothing at completion time."""
        hub = self.hub
        if hub is None or not hub.wants("counter"):
            return None

        def emit(op: Op) -> None:
            occ = compute_occupancy(
                self.gpu,
                stats.block.size,
                shared_mem_per_block=stats.shared_mem_per_block,
                registers_per_thread=stats.registers_per_thread,
                n_blocks=stats.blocks,
            )
            hub.emit(
                "counter",
                stats.name,
                track=op.stream.name,
                start=op.end_time,
                end=op.end_time,
                achieved_occupancy=occ.occupancy,
                warp_execution_efficiency=stats.warp_execution_efficiency,
                branch_efficiency=stats.branch_efficiency,
                gld_efficiency=stats.gld_efficiency,
                shared_efficiency=stats.shared_efficiency,
            )

        return emit

    def _enqueue_migrations(self, stats: KernelStats, stream: Stream) -> None:
        for addr, (reads, writes) in stats.managed_touched.items():
            st = self._managed.get(addr)
            if st is None:
                continue
            plan = st.plan_device_access(
                np.fromiter(reads, dtype=np.int64, count=len(reads)),
                np.fromiter(writes, dtype=np.int64, count=len(writes)),
                self.link,
                self.gpu,
            )
            if not plan.empty:
                op = Op(
                    kind="migrate",
                    name=f"UM migrate {plan.n_pages}p ->dev",
                    stream=stream,
                    duration=plan.duration,
                    nbytes=plan.nbytes,
                )
                self._submit_or_capture(op)

    # ==================================================================
    # Streams, events, synchronization
    # ==================================================================
    def stream(self, name: str | None = None) -> Stream:
        """``cudaStreamCreate``."""
        s = Stream(self, name=name)
        self.engine.register_stream(s)
        return s

    def event(self, name: str = "event") -> Event:
        """``cudaEventCreate``."""
        return Event(name=name)

    def record_event(self, event: Event, *, stream: Stream | None = None) -> None:
        """``cudaEventRecord``."""
        stream = stream or self.default_stream
        event.recorded = True
        event.done_time = None
        self._submit_or_capture(
            Op(kind="event_record", name=f"record {event.name}", stream=stream, event=event)
        )

    def wait_event(self, event: Event, *, stream: Stream | None = None) -> None:
        """``cudaStreamWaitEvent``."""
        stream = stream or self.default_stream
        self._submit_or_capture(
            Op(kind="event_wait", name=f"wait {event.name}", stream=stream, event=event)
        )

    def synchronize(self) -> float:
        """``cudaDeviceSynchronize``: drain all streams, return device time."""
        self._require_live()
        if self._capture is not None:
            raise StreamError("cannot synchronize during graph capture")
        t = self.engine.run_until_idle()
        self.engine.drop_completed()
        return t

    @contextmanager
    def timer(self):
        """Measure the simulated duration of a region::

            with rt.timer() as t:
                ... enqueue work ...
            print(t.elapsed)
        """

        class _Timer:
            elapsed = 0.0

        t = _Timer()
        start = self.engine.now
        yield t
        t.elapsed = self.synchronize() - start

    @property
    def now(self) -> float:
        """Current device-clock time (advances at synchronize)."""
        return self.engine.now

    # ==================================================================
    # Task graphs
    # ==================================================================
    def _submit_or_capture(self, op: Op, stats: KernelStats | None = None) -> None:
        if self._capture is None:
            plan = self.faults
            if plan is not None:
                stall = plan.stall_before(self._op_ordinal)
                if stall > 0.0:
                    self.fault_log.record(
                        "stream-stall", f"{stall * 1e3:g} ms before {op.name}"
                    )
                    self.engine.submit(
                        Op(
                            kind="delay",
                            name=f"injected stall before {op.name}",
                            stream=op.stream,
                            duration=stall,
                        )
                    )
            self._op_ordinal += 1
            self.engine.submit(op)
            return
        graph = self._capture
        # Freeze the recipe: re-create a fresh Op per graph launch, with
        # graph-node overhead for kernels.
        if op.kind == "kernel" and stats is not None:
            def submit(stream: Stream, _stats=stats) -> None:
                def timing_fn(granted: int) -> float:
                    return estimate_kernel_time(
                        _stats, self.gpu, launch_kind="graph", sm_limit=granted
                    ).time_s

                self.engine.submit(
                    Op(
                        kind="kernel",
                        name=f"[graph] {_stats.name}",
                        stream=stream,
                        timing_fn=timing_fn,
                        sm_demand=self._sm_demand(_stats),
                    )
                )
        else:
            def submit(stream: Stream, _op=op) -> None:
                self.engine.submit(
                    Op(
                        kind=_op.kind,
                        name=f"[graph] {_op.name}",
                        stream=stream,
                        duration=_op.duration,
                        nbytes=_op.nbytes,
                        event=_op.event,
                    )
                )

        graph.add(GraphNode(kind=op.kind, name=op.name, submit=submit))

    def graph_capture_begin(self) -> None:
        """Begin stream capture (``cudaStreamBeginCapture``).

        Deviation from CUDA: the captured operations execute
        *functionally* once during capture, which is how the simulator
        learns their statistics; their timing is excluded.
        """
        if self._capture is not None:
            raise GraphError("capture already in progress")
        if not self.gpu.supports_task_graphs:
            raise GraphError(f"{self.gpu.name} does not support task graphs")
        self._capture = TaskGraph()

    def graph_capture_end(self) -> TaskGraph:
        """End capture and return the graph (``cudaStreamEndCapture``)."""
        if self._capture is None:
            raise GraphError("no capture in progress")
        g = self._capture
        self._capture = None
        return g

    def graph_launch(self, graph: ExecGraph, *, stream: Stream | None = None) -> None:
        """``cudaGraphLaunch``: one host call submits every node."""
        self._require_live()
        if not isinstance(graph, ExecGraph):
            raise GraphError("graph_launch needs an instantiated ExecGraph")
        stream = stream or self.default_stream
        self.engine.submit(
            Op(
                kind="kernel",
                name="graph dispatch",
                stream=stream,
                duration=self.gpu.graph_launch_overhead_s,
                sm_demand=1,
            )
        )
        for node in graph.nodes:
            node.submit(stream)

    # ==================================================================
    # Reporting
    # ==================================================================
    def profile_report(self, *, diagnose: bool = False) -> str:
        """An nvprof-style per-kernel summary of everything launched.

        With ``diagnose=True``, appends the performance doctor's
        findings for each kernel that triggered any.
        """
        from repro.host.profiler import build_report

        report = build_report(self.kernel_log, self.gpu)
        if diagnose:
            from repro.host.doctor import diagnose as run_doctor

            seen: set[str] = set()
            extra: list[str] = []
            for stats, _ in self.kernel_log:
                if stats.name in seen:
                    continue
                seen.add(stats.name)
                findings = run_doctor(stats, self.gpu)
                if findings:
                    extra.append(f"\n{stats.name}:")
                    extra.extend(f"  {f}" for f in findings)
            if extra:
                report += "\n\nperformance doctor findings:" + "".join(
                    f"\n{line}" for line in extra
                )
        return report

    def reset(self) -> None:
        """Clear timeline, logs and any sticky error (``cudaDeviceReset``
        analog; keeps memory contents)."""
        self.timeline.clear()
        self.kernel_log.clear()
        self._sticky = None

    def close(self) -> None:
        """Tear the context down; with leakcheck enabled, still-live
        allocations become findings."""
        san = self.sanitizer
        if san is not None and san.enabled("leakcheck"):
            san.check_leaks(self)
