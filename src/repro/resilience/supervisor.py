"""Supervision policy: the per-job ladder, its telemetry and its config.

Every supervised run — ``table1``/``sweep``/``run``/``check`` with
``--jobs``, ``--join``, ``--resume`` or a resilience flag,
and ``repro serve`` requests, all run by the multi-process engine of
:mod:`repro.resilience.fleet` — climbs the same ladder, configured by
one :class:`ResilienceConfig`:

* **bounded retries** — failed attempts retry with the exponential
  backoff + deterministic jitter of
  :class:`~repro.faults.plan.RetryPolicy`; after ``max_retries``
  retries the job is *quarantined* (the run finishes everything else,
  journals it, then raises :class:`QuarantineError`).  One
  :class:`Ladder` per job makes these decisions.
* **wall-clock timeouts** — each in-process attempt runs under
  :func:`wall_clock_limit`; the engine's coordinator also kills a
  local worker whose attempt outlives it.
* **reference fallback** — a divergence on a non-reference backend
  re-runs that job on the reference backend, recorded in the telemetry
  (and surfacing as CLI exit code 3).

Every supervision action (retry, timeout, crash, fallback, resume
skip, quarantine) is folded into :class:`SchedTelemetry` by
:meth:`SchedTelemetry.observe`.  An engine worker also logs each
ladder event to its event log in the run directory and emits it as a
``sched`` activity record on its own hub, so its flight recorder holds
health events next to the device timeline.

Chaos faults come from the scheduler-layer extensions of
:class:`~repro.faults.plan.FaultPlan`; decisions are keyed on the job
ordinal and attempt, so the injected schedule is identical whichever
worker runs a job and across resumes.  Injected crash and hang faults
are simulated in-process by raising the equivalent error; real process
deaths come from fleet chaos (``fleet-kill``, ``hb-stall``) and real
faults.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import BackendDivergenceError, ReproError
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.resilience.journal import DEFAULT_JOURNAL_DIR

__all__ = [
    "WorkerCrash",
    "JobTimeout",
    "QuarantineError",
    "SchedTelemetry",
    "ResilienceConfig",
    "Ladder",
    "wall_clock_limit",
]

#: upper bound on the *real* time spent sleeping out one backoff —
#: the policy's schedule is recorded verbatim in the retry event
_MAX_REAL_BACKOFF_S = 0.05

#: the backoff schedule of every supervised retry
_RETRY_POLICY = RetryPolicy(jitter_frac=0.25)


class WorkerCrash(ReproError):
    """A worker process died without delivering a result."""


class JobTimeout(ReproError):
    """A job attempt exceeded its wall-clock budget."""


class QuarantineError(ReproError):
    """One or more jobs kept failing and were quarantined.

    Raised only after every other job has completed and been
    journaled, so a re-run with ``--resume`` retries just the
    quarantined work.
    """


# ----------------------------------------------------------------------
#: supervision events that bump one :class:`SchedTelemetry` counter
_COUNTERS = {
    "retry": "retries",
    "timeout": "timeouts",
    "worker-crash": "crashes",
    "job-error": "job_errors",
    "resume-skip": "resume_skips",
    "lease-acquire": "leases_acquired",
    "lease-steal": "leases_stolen",
    "heartbeat": "heartbeats",
    "duplicate-completion": "duplicate_completions",
}


def _job_order(entry: dict[str, Any]) -> int:
    job = entry.get("job")
    return job if isinstance(job, int) else -1


def _add_once(entries: list[dict[str, Any]], entry: dict[str, Any]) -> None:
    """Append ``entry`` unless its job is listed; keep job order."""
    if all(e.get("job") != entry["job"] for e in entries):
        entries.append(entry)
        entries.sort(key=_job_order)


@dataclass
class SchedTelemetry:
    """What the supervisor did during one scheduler run.

    Exposed to the CLI for the ``--stats`` sidecar and the
    degraded-run exit code; the merge folds it from the run's event
    logs.
    """

    #: "serial" | "fleet" | "fleet-fallback"
    mode: str = "serial"
    completed: int = 0              #: jobs finished this run (journaled)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    job_errors: int = 0
    resume_skips: int = 0
    fallbacks: list[dict[str, Any]] = field(default_factory=list)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    journal_run_id: str | None = None
    # fleet counters (folded from the run's event logs at merge time)
    fleet_workers: int = 0
    leases_acquired: int = 0
    leases_stolen: int = 0
    heartbeats: int = 0
    duplicate_completions: int = 0

    def observe(self, name: str, /, **args: Any) -> None:
        """Fold one supervision event (the coordinator's, or one replayed
        from a run's event logs) into the telemetry.  Two workers may
        run a job, and jobs finish in any order, so ``fallbacks`` and
        ``quarantined`` keep one entry per job, in job order."""
        if name == "fallback-reference":
            keys = ("benchmark", "job", "from", "to", "reason")
            _add_once(self.fallbacks, {k: args.get(k) for k in keys})
        elif name == "quarantine":
            keys = ("benchmark", "job", "attempts", "error")
            _add_once(self.quarantined, {k: args.get(k) for k in keys})
        elif name in _COUNTERS:
            counter = _COUNTERS[name]
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def degraded(self) -> bool:
        """Did the run finish only by stepping down the ladder?"""
        return bool(self.fallbacks) or self.mode == "fleet-fallback"

    def as_dict(self) -> dict[str, Any]:
        doc = {
            "mode": self.mode,
            "degraded": self.degraded,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "job_errors": self.job_errors,
            "resume_skips": self.resume_skips,
            "fallbacks": list(self.fallbacks),
            "quarantined": list(self.quarantined),
            "journal_run_id": self.journal_run_id,
        }
        if self.fleet_workers:
            doc["fleet"] = {
                "workers": self.fleet_workers,
                "leases_acquired": self.leases_acquired,
                "leases_stolen": self.leases_stolen,
                "heartbeats": self.heartbeats,
                "duplicate_completions": self.duplicate_completions,
            }
        return doc


@dataclass
class ResilienceConfig:
    """Policy and identity of one supervised run.

    The defaults give every run two retries at zero configuration;
    chaos and journaling are opt-in.  ``telemetry`` is filled in during
    the run and read back by the caller afterwards.  ``run_id`` names
    the run directory ``<run-id>.fleet/`` under ``journal_root``; None
    runs unjournaled.  ``worker_id`` names this process when it joins a
    run (``--join``) and prefixes the local workers the engine spawns;
    the lease TTL governs how fast a dead worker's job is stolen.
    """

    max_retries: int = 2
    job_timeout_s: float | None = None
    chaos: FaultPlan | None = None
    telemetry: SchedTelemetry = field(default_factory=SchedTelemetry)
    run_id: str | None = None
    journal_root: str | Path = DEFAULT_JOURNAL_DIR
    command: str = "run"
    worker_id: str = ""
    lease_ttl_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.worker_id:
            self.worker_id = f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        if self.lease_ttl_s <= 0:
            raise ReproError(
                f"lease TTL must be positive, got {self.lease_ttl_s}"
            )

    @property
    def heartbeat_s(self) -> float:
        """The lease heartbeat interval: three beats per TTL."""
        return self.lease_ttl_s / 3


class Ladder:
    """One job on the supervision ladder: its chaos decisions, and the
    fallback, retry or quarantine of each failed attempt.

    ``ordinal`` keys every chaos and jitter decision.  ``backend`` is
    None for work with no oracle to fall back to, and ``reference``
    once the job fell back.  ``config`` (a :class:`ResilienceConfig`)
    supplies ``max_retries`` and ``chaos``, and every event goes
    through ``report(name, **args)``.
    """

    __slots__ = ("ordinal", "benchmark", "backend", "attempts",
                 "max_retries", "chaos", "report")

    def __init__(self, ordinal: int, benchmark: str, backend: str | None,
                 config: Any, report: Callable[..., None]) -> None:
        self.ordinal = ordinal
        self.benchmark = benchmark
        self.backend = backend
        self.attempts = 0             #: failed attempts so far
        self.max_retries = config.max_retries
        self.chaos = config.chaos
        self.report = report

    def action(self) -> str:
        """This attempt's chaos decision: "run" | "crash" | "hang" |
        "diverge"."""
        chaos = self.chaos
        if chaos is None:
            return "run"
        if (
            self.backend not in (None, "reference")
            and chaos.job_diverges(self.ordinal)
        ):
            return "diverge"
        outcome = chaos.worker_outcome(self.ordinal, self.attempts)
        return outcome if outcome != "ok" else "run"

    def failed(self, exc: BaseException) -> bool:
        """Route one failed attempt: False once the job is quarantined,
        True (after sleeping out any backoff) to attempt it again."""
        what = dict(benchmark=self.benchmark, job=self.ordinal)
        if (
            isinstance(exc, BackendDivergenceError)
            and self.backend not in (None, "reference")
        ):
            self.report(
                "fallback-reference", **what,
                **{"from": self.backend}, to="reference", reason=str(exc),
            )
            self.backend = "reference"
            return True
        if isinstance(exc, JobTimeout):
            name = "timeout"
        elif isinstance(exc, WorkerCrash):
            name = "worker-crash"
        else:
            name = "job-error"
        self.report(name, **what, error=str(exc))
        self.attempts += 1
        if self.attempts > self.max_retries:
            self.report(
                "quarantine", **what, attempts=self.attempts, error=str(exc)
            )
            return False
        retry = self.attempts - 1
        u = (
            self.chaos.retry_jitter(self.ordinal, retry)
            if self.chaos is not None else 0.0
        )
        delay = _RETRY_POLICY.backoff(retry, u)
        self.report("retry", **what, attempt=self.attempts, backoff_s=delay)
        time.sleep(min(delay, _MAX_REAL_BACKOFF_S))
        return True

    def run(self, work: Callable[[], Any], timeout: float | None) -> Any:
        """Attempt ``work()`` in-process, each attempt under
        :func:`wall_clock_limit`, until it succeeds (its result) or the
        job is quarantined (None).  Injected crash and hang faults raise
        the typed errors a real death or overrun is charged as."""
        subject = f"job {self.ordinal} ({self.benchmark})"
        while True:
            try:
                action = self.action()
                if action == "crash":
                    raise WorkerCrash(
                        f"injected worker crash (job {self.ordinal})"
                    )
                if action == "hang":
                    raise JobTimeout(
                        f"injected worker hang (job {self.ordinal})"
                    )
                if action == "diverge":
                    raise BackendDivergenceError(
                        f"injected {self.backend}-backend divergence "
                        f"({self.benchmark})"
                    )
                with wall_clock_limit(timeout, subject):
                    return work()
            except ReproError as exc:
                if not self.failed(exc):
                    return None


@contextmanager
def wall_clock_limit(seconds: float | None, subject: str = ""):
    """Raise :class:`JobTimeout` if the block runs past ``seconds``.

    Signal-based (``SIGALRM``), so it only arms in the main thread on
    POSIX; elsewhere it is a no-op.  Used for every in-process attempt
    (:meth:`Ladder.run`); code that blocks the signal escapes it, which
    is what the engine coordinator's kill is for.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout(
            f"{subject or 'unit'} exceeded {seconds:g}s wall clock"
        )

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
