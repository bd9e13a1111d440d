"""Deterministic fault injection for the host runtime.

A :class:`FaultPlan` decides — reproducibly, from a seed — which
operations of a run fail and how: allocations once a byte budget is
exhausted, H2D/D2H transfers (transient failure or silent bit
corruption), a kernel launch that aborts, periodic stream stalls, and
the watchdog budget for runaway kernels.  Every decision is drawn from
a counter-keyed Philox stream, so the *N*-th decision of a domain is a
pure function of ``(seed, domain, N)``: two runs with the same seed and
the same operation sequence inject exactly the same faults, which is
what makes fault-handling behaviour assertable in tests and CI.

The plan only *decides*; :class:`~repro.host.runtime.CudaLite` applies
the outcomes (retrying transient transfer faults with backoff, going
sticky on kernel aborts) and records what happened in a
:class:`FaultLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ReproError

__all__ = ["FaultPlan", "FaultLog", "RetryPolicy"]

#: Domain tags keying the per-decision RNG streams.
_DOMAINS = {
    "h2d": 1,
    "d2h": 2,
    "corrupt": 3,
    "stall": 5,
    "worker": 7,
    "cache": 13,
    "jitter": 17,
    "fleet": 19,
    "lease": 23,
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff (with optional jitter) for retries.

    Used for transient transfer faults at the runtime layer and for
    failed jobs at the scheduler layer.  ``jitter_frac`` spreads the
    backoff by up to that fraction of its nominal value; the caller
    supplies the uniform draw ``u`` so jitter stays deterministic
    (the scheduler keys it on ``(seed, job, retry)``).
    """

    max_attempts: int = 4          #: total tries, including the first
    backoff_s: float = 100e-6      #: simulated delay before retry 1
    multiplier: float = 2.0        #: backoff growth per retry
    jitter_frac: float = 0.0       #: max extra fraction added per retry

    def backoff(self, retry: int, u: float = 0.0) -> float:
        """Backoff delay before the given retry (0-based).

        ``u`` is a uniform [0, 1) draw scaling the jitter term; the
        default 0.0 reproduces the jitterless schedule.
        """
        base = self.backoff_s * self.multiplier**retry
        return base * (1.0 + self.jitter_frac * u)


@dataclass
class FaultLog:
    """What the runtime actually injected and how it recovered."""

    events: list[tuple[str, str]] = field(default_factory=list)
    #: optional activity hub; each recorded fault is forwarded as a
    #: driver-phase ``fault`` activity record
    hub: object = field(default=None, repr=False, compare=False)

    def record(self, kind: str, detail: str = "") -> None:
        self.events.append((kind, detail))
        hub = self.hub
        if hub is not None and hub.wants("fault"):
            hub.emit("fault", kind, track="faults", detail=detail)

    def count(self, kind: str) -> int:
        return sum(1 for k, _ in self.events if k == kind)

    def render(self) -> str:
        if not self.events:
            return "fault log: no faults injected"
        lines = ["fault log:"]
        lines += [f"  {k}: {d}" if d else f"  {k}" for k, d in self.events]
        return "\n".join(lines)


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Parameters
    ----------
    seed:
        Root of every random decision; same seed + same operation
        sequence = same faults.
    alloc_fail_after_bytes:
        Allocations succeed until the cumulative requested bytes exceed
        this; afterwards every allocation fails (OOM analog).
    h2d_fail_prob, d2h_fail_prob:
        Per-transfer probability of a *transient* failure (the runtime
        retries these with backoff).
    corrupt_prob:
        Per-transfer probability that the copy succeeds but one bit of
        the payload flips (silent data corruption).
    kernel_abort_at:
        0-based launch ordinal that aborts mid-flight, poisoning the
        context (sticky error).
    max_transfer_failures:
        Cap on injected transfer failures across the run; once reached,
        would-be failures succeed instead.  ``h2d_fail_prob=1.0,
        max_transfer_failures=1`` deterministically fails the first
        attempt and recovers on the retry.
    stall_every, stall_seconds:
        Every N-th submitted stream operation is preceded by a stall of
        the given simulated duration (jammed-DMA/preemption analog).
    watchdog_cycles:
        Issue-cycle budget per kernel; exceeded → WatchdogTimeout.
        (Also settable directly on the runtime.)
    worker_crash_prob, worker_hang_prob:
        Scheduler-layer chaos: per-attempt probability that an attempt
        fails as a worker crash or as a timeout (both simulated
        in-process).  Decisions are keyed on ``(job ordinal, attempt)``
        so they are independent of which worker runs a job, and when.
    cache_corrupt_prob:
        Per-read probability that a result-cache entry is torn on disk
        before the read (the quarantine-and-recompute path).
    sched_fault_attempts:
        Scheduler chaos only fires on attempt indices below this bound,
        so ``worker_crash_prob=1.0, sched_fault_attempts=1``
        deterministically crashes the first attempt of every job and
        lets the retry succeed.  ``None`` leaves every attempt eligible
        (retry exhaustion → quarantine).
    interrupt_after_jobs:
        Raise ``KeyboardInterrupt`` in the scheduler after this many
        completed (journaled) jobs — the deterministic SIGINT analog
        used by the interrupt-and-resume tests.
    divergence_jobs:
        0-based job ordinals whose execution on a non-reference
        backend raises :class:`~repro.common.errors.BackendDivergenceError`,
        driving the automatic re-run on the reference backend.
    fleet_kill_prob:
        Fleet-layer chaos: per-claim probability that the worker
        process holding a job's lease hard-exits mid-lease (``SIGKILL``
        analog).  Keyed on ``(job ordinal, lease epoch)``, so the
        worker that *steals* the dead worker's lease draws a fresh
        decision; ``sched_fault_attempts`` bounds the eligible epochs
        exactly as it bounds a job's attempts.
    heartbeat_stall_prob:
        Per-claim probability that the lease owner stops heartbeating
        and stalls past the lease TTL before executing, so a healthy
        peer steals the lease mid-run and the original completion
        arrives as a duplicate (first-write-wins merge path).
    lease_corrupt_prob:
        Per-claim probability that the lease file is written torn
        (truncated JSON); peers treat an unreadable lease as
        immediately steal-eligible and quarantine the remnant.
    lease_skew_s:
        Clock-skew analog: stealers judge lease staleness as if their
        clock ran this many seconds ahead, forcing premature steals.
        Results must stay byte-identical — a skewed steal only costs a
        duplicate completion.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        alloc_fail_after_bytes: int | None = None,
        h2d_fail_prob: float = 0.0,
        d2h_fail_prob: float = 0.0,
        corrupt_prob: float = 0.0,
        kernel_abort_at: int | None = None,
        max_transfer_failures: int | None = None,
        stall_every: int | None = None,
        stall_seconds: float = 1e-3,
        watchdog_cycles: float | None = None,
        worker_crash_prob: float = 0.0,
        worker_hang_prob: float = 0.0,
        cache_corrupt_prob: float = 0.0,
        sched_fault_attempts: int | None = None,
        interrupt_after_jobs: int | None = None,
        divergence_jobs: tuple[int, ...] | list[int] | None = None,
        fleet_kill_prob: float = 0.0,
        heartbeat_stall_prob: float = 0.0,
        lease_corrupt_prob: float = 0.0,
        lease_skew_s: float = 0.0,
    ) -> None:
        for name, p in (
            ("h2d_fail_prob", h2d_fail_prob),
            ("d2h_fail_prob", d2h_fail_prob),
            ("corrupt_prob", corrupt_prob),
            ("worker_crash_prob", worker_crash_prob),
            ("worker_hang_prob", worker_hang_prob),
            ("cache_corrupt_prob", cache_corrupt_prob),
            ("fleet_kill_prob", fleet_kill_prob),
            ("heartbeat_stall_prob", heartbeat_stall_prob),
            ("lease_corrupt_prob", lease_corrupt_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {p}")
        if max(h2d_fail_prob, d2h_fail_prob) + corrupt_prob > 1.0:
            raise ReproError("fail probability + corrupt_prob must not exceed 1")
        if worker_crash_prob + worker_hang_prob > 1.0:
            raise ReproError("worker crash + hang probability must not exceed 1")
        if fleet_kill_prob + heartbeat_stall_prob > 1.0:
            raise ReproError(
                "fleet kill + heartbeat-stall probability must not exceed 1"
            )
        if lease_skew_s < 0.0:
            raise ReproError(f"lease_skew_s must be >= 0, got {lease_skew_s}")
        if stall_every is not None and stall_every <= 0:
            raise ReproError(f"stall_every must be positive, got {stall_every}")
        if interrupt_after_jobs is not None and interrupt_after_jobs <= 0:
            raise ReproError(
                f"interrupt_after_jobs must be positive, got {interrupt_after_jobs}"
            )
        self.seed = int(seed)
        self.alloc_fail_after_bytes = alloc_fail_after_bytes
        self.h2d_fail_prob = h2d_fail_prob
        self.d2h_fail_prob = d2h_fail_prob
        self.corrupt_prob = corrupt_prob
        self.kernel_abort_at = kernel_abort_at
        self.max_transfer_failures = max_transfer_failures
        self.stall_every = stall_every
        self.stall_seconds = stall_seconds
        self.watchdog_cycles = watchdog_cycles
        self.worker_crash_prob = worker_crash_prob
        self.worker_hang_prob = worker_hang_prob
        self.cache_corrupt_prob = cache_corrupt_prob
        self.sched_fault_attempts = sched_fault_attempts
        self.interrupt_after_jobs = interrupt_after_jobs
        self.divergence_jobs = tuple(divergence_jobs or ())
        self.fleet_kill_prob = fleet_kill_prob
        self.heartbeat_stall_prob = heartbeat_stall_prob
        self.lease_corrupt_prob = lease_corrupt_prob
        self.lease_skew_s = lease_skew_s
        self.reset()

    def reset(self) -> None:
        """Rewind all decision counters; a replay sees identical faults."""
        self._counters: dict[str, int] = {}
        self._alloc_bytes = 0
        self._failures_injected = 0

    # ------------------------------------------------------------------
    def _draw(self, domain: str) -> float:
        """The next uniform [0,1) draw of a domain's decision stream."""
        n = self._counters.get(domain, 0)
        self._counters[domain] = n + 1
        return float(
            np.random.default_rng([self.seed, _DOMAINS[domain], n]).random()
        )

    # ------------------------------------------------------------------
    def alloc_should_fail(self, nbytes: int) -> bool:
        """Decide the fate of an allocation of ``nbytes``."""
        self._alloc_bytes += int(nbytes)
        return (
            self.alloc_fail_after_bytes is not None
            and self._alloc_bytes > self.alloc_fail_after_bytes
        )

    def transfer_outcome(self, direction: str) -> str:
        """``"ok"`` | ``"fail"`` (transient) | ``"corrupt"`` for one attempt."""
        p_fail = self.h2d_fail_prob if direction == "h2d" else self.d2h_fail_prob
        if p_fail == 0.0 and self.corrupt_prob == 0.0:
            return "ok"
        u = self._draw(direction)
        if u < p_fail:
            if (
                self.max_transfer_failures is not None
                and self._failures_injected >= self.max_transfer_failures
            ):
                return "ok"
            self._failures_injected += 1
            return "fail"
        if u < p_fail + self.corrupt_prob:
            return "corrupt"
        return "ok"

    def corruption_site(self, nbytes: int) -> tuple[int, int]:
        """(byte offset, bit index) to flip in a corrupted payload."""
        n = self._counters.get("corrupt", 0)
        self._counters["corrupt"] = n + 1
        rng = np.random.default_rng([self.seed, _DOMAINS["corrupt"], n])
        return int(rng.integers(max(nbytes, 1))), int(rng.integers(8))

    def kernel_aborts(self, ordinal: int) -> bool:
        """Does the launch with this 0-based ordinal abort?"""
        return self.kernel_abort_at is not None and ordinal == self.kernel_abort_at

    def stall_before(self, op_ordinal: int) -> float:
        """Stall duration (s) to inject before the N-th submitted op."""
        if self.stall_every and (op_ordinal + 1) % self.stall_every == 0:
            return self.stall_seconds
        return 0.0

    # -- scheduler-layer chaos -----------------------------------------
    # These decisions are *pure functions* of (seed, domain, job
    # ordinal, attempt) rather than draws from a sequential counter
    # stream: supervised workers complete jobs in nondeterministic
    # order, and keying on the job keeps the injected fault schedule
    # identical across worker counts, fallbacks, and resumes.

    def _keyed(self, domain: str, ordinal: int, attempt: int) -> float:
        return float(
            np.random.default_rng(
                [self.seed, _DOMAINS[domain], ordinal, attempt]
            ).random()
        )

    def _sched_armed(self, attempt: int) -> bool:
        return (
            self.sched_fault_attempts is None
            or attempt < self.sched_fault_attempts
        )

    def worker_outcome(self, ordinal: int, attempt: int) -> str:
        """``"ok"`` | ``"crash"`` | ``"hang"`` for one job attempt."""
        if self.worker_crash_prob == 0.0 and self.worker_hang_prob == 0.0:
            return "ok"
        if not self._sched_armed(attempt):
            return "ok"
        u = self._keyed("worker", ordinal, attempt)
        if u < self.worker_crash_prob:
            return "crash"
        if u < self.worker_crash_prob + self.worker_hang_prob:
            return "hang"
        return "ok"

    def cache_read_corrupts(self, ordinal: int) -> bool:
        """Should the cache entry read for this job be torn on disk?"""
        if self.cache_corrupt_prob == 0.0:
            return False
        return self._keyed("cache", ordinal, 0) < self.cache_corrupt_prob

    def job_diverges(self, ordinal: int) -> bool:
        """Does the non-reference execution of this job diverge?"""
        return ordinal in self.divergence_jobs

    def interrupts_after(self, completed_jobs: int) -> bool:
        """Simulated SIGINT once this many jobs have been journaled."""
        return (
            self.interrupt_after_jobs is not None
            and completed_jobs >= self.interrupt_after_jobs
        )

    def retry_jitter(self, ordinal: int, attempt: int) -> float:
        """Uniform [0,1) draw feeding :meth:`RetryPolicy.backoff` jitter."""
        return self._keyed("jitter", ordinal, attempt)

    # -- fleet-layer chaos ---------------------------------------------
    # Keyed on (job ordinal, lease epoch): epoch 0 is the first claim,
    # each steal increments it.  Like the scheduler-layer decisions,
    # these are pure functions of the key, so the same plan injects the
    # same faults regardless of which worker claims which job.

    def fleet_outcome(self, ordinal: int, epoch: int) -> str:
        """``"ok"`` | ``"kill"`` | ``"stall"`` for one lease claim.

        ``kill``: the claiming worker hard-exits mid-lease.  ``stall``:
        the claiming worker stops heartbeating and sleeps past the
        lease TTL before executing (duplicate-completion path).
        """
        if self.fleet_kill_prob == 0.0 and self.heartbeat_stall_prob == 0.0:
            return "ok"
        if not self._sched_armed(epoch):
            return "ok"
        u = self._keyed("fleet", ordinal, epoch)
        if u < self.fleet_kill_prob:
            return "kill"
        if u < self.fleet_kill_prob + self.heartbeat_stall_prob:
            return "stall"
        return "ok"

    def lease_write_corrupts(self, ordinal: int, epoch: int) -> bool:
        """Should this claim's lease file be written torn on disk?"""
        if self.lease_corrupt_prob == 0.0 or not self._sched_armed(epoch):
            return False
        return self._keyed("lease", ordinal, epoch) < self.lease_corrupt_prob

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed})"
