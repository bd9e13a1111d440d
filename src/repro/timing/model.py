"""The analytic kernel-timing model.

Converts one launch's :class:`~repro.simt.stats.KernelStats` into a
simulated execution time via a multi-bound roofline:

* **issue** — total pipeline issue-cycles spread over the active SMs
  (includes ALU work, LSU transaction slots, shared-memory passes, so
  divergence, uncoalesced transactions, and bank conflicts all inflate
  it);
* **l2** — sector traffic arriving at L2 against L2 bandwidth;
* **dram** — post-cache DRAM bytes against DRAM bandwidth, with the
  uncached (L1-bypass) read portion derated by
  ``GPUSpec.uncached_path_efficiency`` (Kepler behaviour);
* **latency** — a Little's-law floor: each warp can keep only a few
  memory requests in flight, so low-occupancy or tiny launches cannot
  saturate bandwidth.

The bounds are combined as ``T = max + beta * (sum - max)``: the
dominant resource sets the time, and ``beta`` models the imperfect
overlap of the others.  ``beta`` is the model's single global
calibration constant; it is what lets mostly-memory-bound effects like
MemAlign's ~3% and WarpDivRedux's ~10% (paper Table I) show through
without dominating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import GPUSpec
from repro.common.errors import SpecError
from repro.mem.hierarchy import TrafficReport, resolve_traffic
from repro.mem.trace import AccessTrace
from repro.simt.stats import KernelStats
from repro.timing.occupancy import Occupancy, compute_occupancy

__all__ = [
    "KernelTiming",
    "estimate_kernel_time",
    "launch_overhead",
    "MODEL_BETA",
    "MEM_PARALLELISM_PER_WARP",
    "DEVICE_LAUNCH_CONCURRENCY",
]

#: Overlap-imperfection coefficient (see module docstring).
MODEL_BETA = 0.25
#: Outstanding memory requests one warp sustains (MSHR/ILP budget).
MEM_PARALLELISM_PER_WARP = 4.0
#: Device-side launches issue from many blocks concurrently into the
#: hardware's pending-launch pool; their overhead is latency rather than
#: serialized time.  Average number in flight (calibration).
DEVICE_LAUNCH_CONCURRENCY = 32


def launch_overhead(gpu: GPUSpec, kind: str) -> float:
    """Fixed launch cost by mechanism.

    ``host`` is a CPU-initiated ``<<< >>>`` launch, ``device`` a
    dynamic-parallelism launch from a running kernel, ``graph`` the
    per-node cost inside an instantiated CUDA graph, and ``none`` is
    used when a caller accounts overhead itself.
    """
    if kind == "host":
        return gpu.kernel_launch_overhead_s
    if kind == "device":
        return gpu.device_launch_overhead_s
    if kind == "graph":
        return gpu.graph_node_overhead_s
    if kind == "none":
        return 0.0
    raise SpecError(f"unknown launch kind {kind!r}")


@dataclass
class KernelTiming:
    """Timing breakdown for one kernel launch."""

    time_s: float                  #: total = overhead + execution
    exec_s: float                  #: execution time (no launch overhead)
    overhead_s: float
    bounds: dict[str, float] = field(default_factory=dict)
    limiter: str = ""              #: name of the binding bound
    occupancy: Occupancy | None = None
    traffic: TrafficReport | None = None

    def bound_fraction(self, name: str) -> float:
        """A bound's share of the binding bound (diagnostics)."""
        m = max(self.bounds.values(), default=0.0)
        return self.bounds.get(name, 0.0) / m if m else 0.0


def _resolve_once(
    trace: AccessTrace, gpu: GPUSpec, resident_warps_per_sm: int
) -> TrafficReport:
    """:func:`resolve_traffic`, memoised on the trace.

    The engine (once per SM grant), the row code and ``profile`` all time
    the same launch, and the traffic depends only on the trace, the GPU
    and the occupancy — not on ``sm_limit`` or the launch kind.  The
    record count is part of the key because a dynamic-parallelism parent
    appends its children's records to its own trace.  ``GPUSpec`` holds
    a dict and cannot be hashed; tuple equality compares it by identity,
    then by value.
    """
    key = (gpu, resident_warps_per_sm, len(trace.records))
    if trace._traffic is not None and trace._traffic[0] == key:
        return trace._traffic[1]
    report = resolve_traffic(trace, gpu, resident_warps_per_sm=resident_warps_per_sm)
    trace._traffic = (key, report)
    return report


def estimate_kernel_time(
    stats: KernelStats,
    gpu: GPUSpec,
    *,
    launch_kind: str = "host",
    sm_limit: int | None = None,
    beta: float = MODEL_BETA,
    mem_parallelism: float = MEM_PARALLELISM_PER_WARP,
) -> KernelTiming:
    """Estimate one launch's execution time from its statistics.

    ``sm_limit`` caps the SMs available to this launch — the
    discrete-event engine passes the grant a kernel received when other
    kernels run concurrently (paper §III-C).
    """
    occ = compute_occupancy(
        gpu,
        stats.block.size,
        shared_mem_per_block=stats.shared_mem_per_block,
        registers_per_thread=stats.registers_per_thread,
        n_blocks=stats.blocks,
    )
    traffic = _resolve_once(stats.trace, gpu, occ.warps_per_sm)

    active_sms = occ.active_sms
    if sm_limit is not None:
        active_sms = max(1, min(active_sms, int(sm_limit)))
    clock = gpu.clock_hz
    bounds: dict[str, float] = {}

    # -- issue: all pipeline cycles, spread over the SMs actually used.
    bounds["issue"] = stats.issue_cycles / (active_sms * clock)

    # -- L2 bandwidth.
    l2_bytes = traffic.l2_sectors * gpu.sector_bytes
    bounds["l2"] = l2_bytes / gpu.l2_bandwidth

    # -- DRAM bandwidth, with the uncached read path derated.
    eff = gpu.uncached_path_efficiency
    cached_reads = traffic.dram_read_bytes - traffic.dram_uncached_read_bytes
    dram_t = (cached_reads + traffic.dram_write_bytes) / gpu.dram_bandwidth
    if traffic.dram_uncached_read_bytes:
        dram_t += traffic.dram_uncached_read_bytes / (gpu.dram_bandwidth * eff)
    bounds["dram"] = dram_t

    # -- latency floor (Little's law): requests / sustainable request rate.
    if stats.global_requests:
        warps_in_grid = max(stats.warps, 1)
        resident = min(occ.warps_per_sm, -(-warps_in_grid // active_sms))
        in_flight = active_sms * resident * mem_parallelism
        lat_s = traffic.avg_load_latency_cycles / clock
        bounds["latency"] = stats.global_requests * lat_s / in_flight

    m = max(bounds.values())
    limiter = max(bounds, key=lambda k: bounds[k])
    exec_s = m + beta * (sum(bounds.values()) - m)
    overhead = launch_overhead(gpu, launch_kind)
    if stats.device_launches:
        overhead += (
            stats.device_launches
            * gpu.device_launch_overhead_s
            / DEVICE_LAUNCH_CONCURRENCY
        )
    return KernelTiming(
        time_s=overhead + exec_s,
        exec_s=exec_s,
        overhead_s=overhead,
        bounds=bounds,
        limiter=limiter,
        occupancy=occ,
        traffic=traffic,
    )
