"""The supervised worker pool behind ``repro.sched``.

``run_supervised`` executes a list of
:class:`~repro.sched.runner.JobSpec` s with the machinery a production
job scheduler treats as table stakes:

* **crash isolation** — each in-flight job runs in its own worker
  process behind a pipe; a dying worker fails only its job, and the
  pool refills the slot.
* **wall-clock timeouts** — a job past ``job_timeout_s`` has its worker
  terminated and is treated as a failed attempt.
* **bounded retries** — failed attempts retry with the exponential
  backoff + deterministic jitter of
  :class:`~repro.faults.plan.RetryPolicy`; after ``max_retries``
  retries the job is *quarantined* (the run finishes everything else,
  journals it, then raises :class:`QuarantineError`).  One
  :class:`Ladder` per job makes these decisions for every supervised
  path: this pool, the fleet's workers, and ``repro check`` units.
* **checkpointing** — every completed payload is appended to the run's
  :class:`~repro.resilience.journal.RunJournal` before the next job is
  considered, so an interrupt loses nothing that finished.
* **a graceful-degradation ladder** — pool creation failure or
  repeated worker death drops the run to serial in-process execution;
  a divergence on a non-reference backend re-runs that job on the
  reference backend.
  Both degradations are recorded in the telemetry (and surface as CLI
  exit code 3).

Every supervision action (retry, timeout, crash, fallback, resume
skip, quarantine) is folded into :class:`SchedTelemetry` by
:meth:`SchedTelemetry.observe` and emitted as a ``sched`` activity
record through the configured :class:`~repro.prof.activity.ActivityHub`,
so health events appear in Chrome traces and NDJSON exports next to the
device timeline.

Chaos faults come from the scheduler-layer extensions of
:class:`~repro.faults.plan.FaultPlan`; decisions are keyed on the job
ordinal, so the injected schedule is identical across pool widths,
serial fallback, and resumes.  In pool mode crash and hang faults are
*real* (the worker hard-exits / sleeps past the timeout); in-process
attempts simulate them by raising the equivalent error.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.common.errors import BackendDivergenceError, ReproError
from repro.faults.plan import FaultPlan, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prof.activity import ActivityHub
    from repro.resilience.journal import RunJournal
    from repro.sched.cache import ResultCache
    from repro.sched.runner import JobSpec

__all__ = [
    "WorkerCrash",
    "JobTimeout",
    "PayloadCorruption",
    "QuarantineError",
    "SchedTelemetry",
    "ResilienceConfig",
    "Ladder",
    "run_supervised",
    "wall_clock_limit",
    "HANG_SLEEP_S",
]

#: how long an injected "hang" sleeps in a real worker — far beyond any
#: sane job timeout, so the supervisor's kill path is what ends it
HANG_SLEEP_S = 60.0

#: job timeout applied automatically when hang chaos is armed but the
#: caller set none (a hang fault with no timeout would deadlock the run)
_IMPLICIT_CHAOS_TIMEOUT_S = 5.0

#: upper bound on the *real* time spent sleeping out one backoff —
#: the policy's schedule is recorded verbatim in the retry event
_MAX_REAL_BACKOFF_S = 0.05

#: the backoff schedule of every supervised retry
_RETRY_POLICY = RetryPolicy(jitter_frac=0.25)


class WorkerCrash(ReproError):
    """A worker process died without delivering a result."""


class JobTimeout(ReproError):
    """A job exceeded its wall-clock budget and its worker was killed."""


class PayloadCorruption(ReproError):
    """A worker's result payload arrived truncated or corrupted."""


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
    "payload-fault": "payload_faults",
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


@dataclass
class SchedTelemetry:
    """What the supervisor did during one scheduler run.

    Exposed to the CLI for the ``--stats`` sidecar and the
    degraded-run exit code; the same events stream through the
    activity hub as ``sched`` records.
    """

    #: "serial" | "pool" | "serial-fallback" | "fleet" | "fleet-fallback"
    mode: str = "serial"
    completed: int = 0              #: jobs finished this run (journaled)
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    payload_faults: int = 0
    job_errors: int = 0
    resume_skips: int = 0
    fallbacks: list[dict[str, Any]] = field(default_factory=list)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    journal_run_id: str | None = None
    # fleet counters (filled by repro.resilience.fleet at merge time)
    fleet_workers: int = 0
    leases_acquired: int = 0
    leases_stolen: int = 0
    heartbeats: int = 0
    duplicate_completions: int = 0

    def observe(self, name: str, /, **args: Any) -> None:
        """Fold one supervision event (pool, ``check`` unit, or replayed
        fleet event log) into the telemetry.  A fleet may run a job
        twice, and pool and fleet jobs finish in any order, so
        ``fallbacks`` keeps one entry per job, in job order."""
        if name == "fallback-reference":
            if all(f.get("job") != args.get("job") for f in self.fallbacks):
                keys = ("benchmark", "job", "from", "to", "reason")
                self.fallbacks.append({k: args.get(k) for k in keys})
                self.fallbacks.sort(key=_job_order)
        elif name == "quarantine":
            keys = ("benchmark", "job", "attempts", "error")
            self.quarantined.append({k: args.get(k) for k in keys})
        elif name in _COUNTERS:
            counter = _COUNTERS[name]
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def degraded(self) -> bool:
        """Did the run finish only by stepping down the ladder?"""
        return bool(self.fallbacks) or self.mode in (
            "serial-fallback", "fleet-fallback"
        )

    def as_dict(self) -> dict[str, Any]:
        doc = {
            "mode": self.mode,
            "degraded": self.degraded,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "payload_faults": self.payload_faults,
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
    """Supervision policy for one scheduler run.

    The defaults give every run crash isolation and two retries at
    zero configuration; chaos, journaling, and health-event emission
    are opt-in.  ``telemetry`` is filled in during the run and read
    back by the caller afterwards.
    """

    max_retries: int = 2
    job_timeout_s: float | None = None
    chaos: FaultPlan | None = None
    journal: "RunJournal | None" = None
    hub: "ActivityHub | None" = None
    #: worker deaths (crashes + timeouts) before degrading to serial
    serial_fallback_after: int = 16
    telemetry: SchedTelemetry = field(default_factory=SchedTelemetry)

    def report(self, name: str, /, **args: Any) -> None:
        """Fold one supervision event into the telemetry, then emit it
        as a ``sched`` record on the hub's ``scheduler`` track."""
        self.telemetry.observe(name, **args)
        if self.hub is not None and self.hub.wants("sched"):
            self.hub.emit("sched", name, track="scheduler", **args)

    def raise_quarantined(self, units: str = "job(s)") -> None:
        """Raise :class:`QuarantineError` if the ladder quarantined any
        of the run's ``units``; called once everything else finished."""
        quarantined = self.telemetry.quarantined
        if not quarantined:
            return
        names = ", ".join(f"{q['benchmark']}#{q['job']}" for q in quarantined)
        hint = (
            f"; completed work is journaled as run {self.journal.run_id}"
            if self.journal is not None else ""
        )
        raise QuarantineError(
            f"{len(quarantined)} {units} quarantined after retry "
            f"exhaustion: {names}{hint}"
        )


# ----------------------------------------------------------------------
def _worker_main(conn, spec: "JobSpec", action: str) -> None:
    """Entry point of one worker process: run one job, report, exit.

    ``action`` carries the chaos decision made in the parent so crashes
    and hangs are *real* process behaviour, not simulations.  Errors
    are relayed through the pipe as :class:`ReproError` instances and
    exit cleanly — a nonzero exit with no message is what the parent
    counts as a crash.
    """
    # the parent's SIGTERM/SIGINT handlers were inherited across fork:
    # terminate() must kill us silently, and a terminal Ctrl-C must be
    # handled by the supervisor (which then terminates us), not by a
    # KeyboardInterrupt racing conn.send mid-payload
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    if action == "crash":
        os._exit(17)
    if action == "hang":
        time.sleep(HANG_SLEEP_S)
        os._exit(0)
    from repro.sched.runner import execute_job

    try:
        if action == "diverge":
            raise BackendDivergenceError(
                f"injected {spec.backend}-backend divergence ({spec.benchmark})"
            )
        payload = execute_job(spec)
    except BaseException as exc:  # noqa: BLE001 - report across the pipe
        if not isinstance(exc, ReproError):
            exc = ReproError(f"{type(exc).__name__}: {exc}")
        try:
            conn.send(("error", exc))
        except Exception:
            pass
        os._exit(0)
    try:
        conn.send(("ok", payload))
        conn.close()
    except Exception:
        os._exit(13)
    os._exit(0)


class Ladder:
    """One job on the supervision ladder: its chaos decisions, and the
    fallback, retry or quarantine of each failed attempt.

    ``ordinal`` keys every chaos and jitter decision.  ``backend`` is
    None for work with no oracle to fall back to, and ``reference``
    once the job fell back.  ``config`` (a :class:`ResilienceConfig` or
    a fleet's config) supplies ``max_retries`` and ``chaos``, and every
    event goes through ``report(name, **args)``.
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

    def check_payload(self) -> None:
        """Raise :class:`PayloadCorruption` when chaos tears this
        attempt's result."""
        if self.chaos is None:
            return
        kind = self.chaos.payload_outcome(self.ordinal, self.attempts)
        if kind != "ok":
            raise PayloadCorruption(
                f"{kind}d result payload (job {self.ordinal}, "
                f"attempt {self.attempts})"
            )

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
        elif isinstance(exc, PayloadCorruption):
            name = "payload-fault"
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
        job is quarantined (None).  Injected faults raise the typed
        errors a pool worker would have produced."""
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
                    result = work()
                self.check_payload()
                return result
            except ReproError as exc:
                if not self.failed(exc):
                    return None


class _Task(Ladder):
    """One queued pool job: its ladder, and what completing it needs."""

    __slots__ = ("spec", "key", "fingerprint")

    def __init__(self, ordinal, spec, key, fingerprint, config):
        super().__init__(
            ordinal, spec.benchmark, spec.backend, config, config.report
        )
        self.spec = spec
        self.key = key
        self.fingerprint = fingerprint


class _Active:
    """One occupied pool slot."""

    __slots__ = ("task", "proc", "conn", "deadline")

    def __init__(self, task, proc, conn, deadline):
        self.task = task
        self.proc = proc
        self.conn = conn
        self.deadline = deadline


@contextmanager
def wall_clock_limit(seconds: float | None, subject: str = ""):
    """Raise :class:`JobTimeout` if the block runs past ``seconds``.

    Signal-based (``SIGALRM``), so it only arms in the main thread on
    POSIX; elsewhere it is a no-op.  Used for in-process attempts,
    which the pool cannot isolate (:meth:`Ladder.run`).
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


# ----------------------------------------------------------------------
def run_supervised(
    specs: Sequence["JobSpec"],
    *,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    config: ResilienceConfig | None = None,
) -> list[dict[str, Any]]:
    """Execute jobs under supervision; order-preserving payload list.

    Resolution order per job: journal (resume) → result cache → live
    execution.  Completed payloads are cached and journaled as they
    arrive; the parent owns all cache/journal traffic, so workers stay
    side-effect-free.
    """
    from repro.obs.trace import TraceContext
    from repro.resilience.journal import job_fingerprint
    from repro.sched.runner import _cache_key, execute_job

    config = config or ResilienceConfig()
    tele = config.telemetry
    chaos = config.chaos
    journal = config.journal
    hub = config.hub
    if journal is not None:
        tele.journal_run_id = journal.run_id
    if cache is not None and chaos is not None and cache.chaos is None:
        cache.chaos = chaos

    # one run = one trace; span ids derive from the journal's run id so
    # a --resume re-mints the identical tree
    root_ctx = (
        TraceContext.root(journal.run_id) if journal is not None else None
    )

    def job_ctx(spec: "JobSpec", ordinal: int) -> "TraceContext | None":
        if spec.trace is not None:
            return spec.trace
        return root_ctx.job(ordinal) if root_ctx is not None else None

    def job_meta(
        spec: "JobSpec", ordinal: int, **extra: Any
    ) -> dict[str, Any]:
        meta: dict[str, Any] = {
            "benchmark": spec.benchmark, "job": ordinal, **extra,
        }
        ctx = job_ctx(spec, ordinal)
        if ctx is not None:
            meta.update(ctx.as_dict())
        return meta

    timeout = config.job_timeout_s
    if timeout is None and chaos is not None and chaos.worker_hang_prob > 0:
        timeout = _IMPLICIT_CHAOS_TIMEOUT_S

    payloads: list[dict[str, Any] | None] = [None] * len(specs)
    queue: deque[_Task] = deque()
    for i, spec in enumerate(specs):
        fingerprint = job_fingerprint(spec) if journal is not None else None
        if fingerprint is not None and fingerprint in journal.completed:
            payloads[i] = journal.completed[fingerprint]
            config.report("resume-skip", benchmark=spec.benchmark, job=i)
            continue
        key = _cache_key(cache, spec) if cache is not None else None
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            payloads[i] = hit
            if journal is not None:
                journal.record(
                    fingerprint, hit,
                    meta=job_meta(spec, i, source="cache"),
                )
            continue
        queue.append(_Task(i, spec, key, fingerprint, config))

    pool_enabled = jobs > 1 and len(queue) > 1
    tele.mode = "pool" if pool_enabled else "serial"

    # flight recorder: keep the last records around so a quarantine can
    # dump what the run was doing on the way down
    recorder = None
    recorder_sid = None
    prev_trace = None
    if hub is not None:
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(
            worker="pool",
            run_id=journal.run_id if journal is not None else None,
        )
        recorder_sid = hub.subscribe(recorder)
        prev_trace = hub.trace
        if root_ctx is not None:
            hub.trace = root_ctx

    # -- completion and failure routing ------------------------------
    def complete(task: _Task, payload: dict[str, Any]) -> None:
        payloads[task.ordinal] = payload
        if cache is not None and task.key is not None:
            cache.put(task.key, payload)
        if journal is not None:
            journal.record(
                task.fingerprint, payload,
                meta=job_meta(
                    task.spec, task.ordinal,
                    kind=task.spec.kind,
                    backend=task.backend,
                    attempts=task.attempts + 1,
                ),
            )
        tele.completed += 1
        if chaos is not None and chaos.interrupts_after(tele.completed):
            # deterministic SIGINT analog for interrupt-and-resume tests
            raise KeyboardInterrupt

    def failed(task: _Task, exc: BaseException) -> None:
        if task.failed(exc):
            queue.append(task)

    def run_serial_task(task: _Task) -> None:
        # in-process hangs are simulated, so only an explicit budget
        # applies here, not the implicit one that ends real hangs
        payload = task.run(
            lambda: execute_job(replace(task.spec, backend=task.backend)),
            config.job_timeout_s,
        )
        if payload is not None:
            complete(task, payload)

    # -- pool machinery ------------------------------------------------
    import multiprocessing

    ctx = multiprocessing.get_context()
    active: dict[int, _Active] = {}
    next_slot = 0
    deaths = 0

    def start_worker(task: _Task) -> _Active:
        action = task.action()
        spec = replace(task.spec, backend=task.backend)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, spec, action),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = (time.monotonic() + timeout) if timeout else None
        return _Active(task, proc, parent_conn, deadline)

    def stop_worker(a: _Active) -> None:
        if a.proc.is_alive():
            a.proc.terminate()
        a.proc.join(timeout=5)
        if a.proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            a.proc.kill()
            a.proc.join(timeout=5)
        a.conn.close()

    def degrade_to_serial(reason: str) -> None:
        nonlocal pool_enabled
        pool_enabled = False
        tele.mode = "serial-fallback"
        config.report("fallback-serial", reason=reason)
        for a in list(active.values()):
            stop_worker(a)
            queue.appendleft(a.task)
        active.clear()

    def worker_died(a: _Active, exc: ReproError) -> None:
        nonlocal deaths
        deaths += 1
        failed(a.task, exc)
        if pool_enabled and deaths >= config.serial_fallback_after:
            degrade_to_serial(
                f"{deaths} worker death(s); continuing serially"
            )

    width = max(1, jobs)
    try:
        while queue or active:
            if not pool_enabled:
                if active:  # pragma: no cover - defensive (drained above)
                    for a in list(active.values()):
                        stop_worker(a)
                        queue.appendleft(a.task)
                    active.clear()
                run_serial_task(queue.popleft())
                continue

            # refill free slots
            while queue and len(active) < width:
                task = queue.popleft()
                try:
                    active[next_slot] = start_worker(task)
                    next_slot += 1
                except OSError as exc:
                    queue.appendleft(task)
                    degrade_to_serial(f"worker pool unavailable: {exc}")
                    break
            if not pool_enabled or not active:
                continue

            now = time.monotonic()
            deadlines = [a.deadline for a in active.values() if a.deadline]
            wait_s = None
            if deadlines:
                wait_s = max(0.0, min(deadlines) - now)
            ready = mp_connection.wait(
                [a.conn for a in active.values()], timeout=wait_s
            )
            now = time.monotonic()
            for slot, a in list(active.items()):
                if slot not in active:
                    # a worker_died → degrade_to_serial on an earlier
                    # slot drained the pool mid-iteration; this slot's
                    # task is already re-queued for serial execution
                    continue
                task = a.task
                if a.conn in ready:
                    try:
                        msg = a.conn.recv()
                    except (EOFError, OSError):
                        msg = None
                    del active[slot]
                    if msg is None:
                        stop_worker(a)
                        worker_died(
                            a,
                            WorkerCrash(
                                f"worker for job {task.ordinal} "
                                f"({task.spec.benchmark}) died "
                                f"(exit {a.proc.exitcode})"
                            ),
                        )
                        continue
                    stop_worker(a)
                    if msg[0] != "ok":
                        failed(task, msg[1])
                        continue
                    try:
                        task.check_payload()
                    except PayloadCorruption as exc:
                        failed(task, exc)
                        continue
                    complete(task, msg[1])
                elif a.deadline is not None and now >= a.deadline:
                    del active[slot]
                    stop_worker(a)
                    worker_died(
                        a,
                        JobTimeout(
                            f"job {task.ordinal} ({task.spec.benchmark}) "
                            f"exceeded {timeout:g}s wall clock"
                        ),
                    )
    finally:
        # never leak child processes: Ctrl-C, chaos interrupts, and
        # raising jobs all pass through here before unwinding
        for a in list(active.values()):
            stop_worker(a)
        active.clear()
        if hub is not None and recorder_sid is not None:
            hub.unsubscribe(recorder_sid)
            hub.trace = prev_trace

    if tele.quarantined:
        if recorder is not None and journal is not None and len(recorder):
            recorder.dump(
                journal.path.parent / "flightrec" / journal.run_id,
                reason="quarantine",
            )
        config.raise_quarantined()
    return payloads  # type: ignore[return-value]
