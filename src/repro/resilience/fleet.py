"""One multi-process engine for every supervised job list.

:func:`run_jobs` runs a list of :class:`~repro.sched.runner.JobSpec` s
— ``table1``, ``sweep`` and ``run`` under ``--jobs``, ``--resume`` or
a resilience flag, and every ``repro serve`` request —
through one *run directory*, ``<journal-dir>/<run-id>.fleet/``.  A
coordinator resolves each job once, against the run's journals
(``--resume``) and then the :class:`~repro.sched.cache.ResultCache`,
runs the rest as one in-process worker or as local worker processes it
supervises, and merges.  ``--join <run-id>`` (:func:`join_fleet`) makes
a process on any machine sharing the directory one more worker of the
same run.  Nothing coordinates the workers except the filesystem:

* the **manifest** (``manifest.json``) pins the run's job list — one
  :func:`~repro.resilience.journal.job_fingerprint` per spec, in spec
  order — the model digest of the code that computes them, and the
  lease TTL of the invocation that created it, by which every reader
  judges the run's leases and workers.  The first arrival creates it
  atomically (hard-link publish); a joining worker validates its own
  job list against it, so two operators who typed different sweeps
  into the same run id, or a worker running other code, fail loudly
  instead of merging garbage;
* each job is claimed through an atomic **lease**
  (:mod:`~repro.resilience.lease`): exclusive atomic publish, atomic
  heartbeats, rename-based stealing once a lease outlives its TTL;
* each worker writes **one log**, its own ``repro-journal/1`` NDJSON
  :class:`~repro.resilience.journal.RunJournal` under ``journals/`` —
  append-only, never contended.  It holds the worker's health events
  (lease acquires, steals, heartbeats, stalls, kills, exits, and the
  supervision ladder's failures, retries, fallbacks and quarantines),
  which the merge folds through
  :meth:`~repro.resilience.supervisor.SchedTelemetry.observe`, and
  one completion line per finished job: its payload and the successful
  attempt's activity, one append.  The coordinator journals cache hits
  and its own ladder events the same way, under the run id.

Subdirectories are created when first written, and every file is
published or appended through :mod:`repro.common.durable` (the
"Durability" section of ``docs/resilience.md``).  This module is also
the only reader of a run directory: the merge, the trace stitcher,
``repro top``, ``repro journal ls/show/gc`` and the ``--metrics``
samples all go through the readers below (every worker log is read
by :func:`read_logs`), and :func:`fleet_status`, the one snapshot
they share, counts only the manifest's current jobs.

The **merge** is deterministic and idempotent: payloads are collected
per fingerprint across all worker journals in sorted worker order,
first write wins, and every duplicate (a stalled worker finishing a
stolen job) is cross-validated by SHA-256 checksum against the winner,
so the final payload list is byte-identical to a serial run regardless
of worker count, death order, or duplicate completions.  A
disagreement is a hard error, never a silent pick.

Local workers are supervised: a worker that dies is charged a
``worker-crash`` on the :class:`~repro.resilience.supervisor.Ladder` of
the job whose lease it held, the lease is expired in place so the next
claim steals it at epoch + 1, and a replacement is spawned; a worker
whose attempt outlives twice the job timeout is killed and charged a
``timeout``; a job charged past ``max_retries`` is quarantined.  A
worker that cannot be started — spawning raises, or it dies holding no
lease — drops the run to in-process execution (``fleet-fallback``,
exit code 3).  Chaos decisions
(:meth:`~repro.faults.plan.FaultPlan.fleet_outcome`) are keyed on
``(job ordinal, lease epoch)``, so injected kill/stall schedules are
reproducible across any worker count.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.durable import atomic_write
from repro.common.errors import ReproError
from repro.resilience.journal import (
    RunJournal,
    WorkerLog,
    job_fingerprint,
    read_log,
)
from repro.resilience.lease import LeaseDir
from repro.resilience.supervisor import (
    JobTimeout,
    Ladder,
    QuarantineError,
    ResilienceConfig,
    SchedTelemetry,
    WorkerCrash,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sched.cache import ResultCache
    from repro.sched.runner import JobSpec

__all__ = [
    "FLEET_SCHEMA",
    "FleetMergeError",
    "fleet_dir",
    "ensure_manifest",
    "read_manifest",
    "read_logs",
    "completions",
    "scan_completed",
    "scan_quarantined",
    "flight_dumps",
    "fleet_status",
    "list_runs",
    "gc_runs",
    "fleet_worker",
    "run_jobs",
    "join_fleet",
    "merge_fleet",
]

FLEET_SCHEMA = "repro-fleet/1"

#: how often idle workers and the coordinator rescan the run directory
POLL_S = 0.05

#: multiples of the job timeout an attempt may run before the
#: coordinator kills its worker; the worker's own SIGALRM limit
#: (:func:`~repro.resilience.supervisor.wall_clock_limit`) fires at one
_KILL_AFTER = 2.0

#: how long the coordinator waits, once every job is resolved, for its
#: idle workers to see it within one poll and log ``worker-exit``
_EXIT_GRACE_S = 1.0


class FleetMergeError(ReproError):
    """Worker journals (or the cache) disagree about a job's payload."""


def fleet_dir(root: str | Path, run_id: str) -> Path:
    """The shared coordination directory of one fleet run."""
    return Path(root) / f"{run_id}.fleet"


# ----------------------------------------------------------------------
# manifest

def _spec_as_dict(spec: "JobSpec") -> dict[str, Any]:
    return {
        "benchmark": spec.benchmark,
        "kind": spec.kind,
        "params": spec.params,
        "system": spec.system,
        "backend": spec.backend,
    }


def ensure_manifest(
    run_dir: Path,
    specs: Sequence["JobSpec"],
    *,
    run_id: str,
    command: str,
    lease_ttl_s: float,
    republish: bool = False,
) -> dict[str, Any]:
    """Create (first arrival) or validate (everyone else) the manifest.

    Publication is an exclusive
    :func:`~repro.common.durable.atomic_write` (a hard link): it fails
    for every worker but one, and no reader ever observes a partial
    manifest.  A joining worker whose own spec list hashes
    differently fails loudly: half a fleet computing a different sweep,
    or running other code (the manifest's ``model`` digest names it),
    must not share journals with this one.  With ``republish`` (the
    coordinator of ``--resume``) a different job list or lease TTL
    replaces the manifest instead: journaled jobs are matched by
    fingerprint.  A joining worker keeps its own ``lease_ttl_s`` for
    its own leases; the manifest keeps the creator's.
    """
    from repro.sched.cache import model_digest

    fingerprints = [job_fingerprint(s) for s in specs]
    path = run_dir / "manifest.json"
    model = model_digest()
    doc = {
        "schema": FLEET_SCHEMA,
        "run_id": run_id,
        "command": command,
        "lease_ttl_s": lease_ttl_s,
        "model": model,
        "jobs": fingerprints,
        "specs": [_spec_as_dict(s) for s in specs],
    }
    if not path.exists():
        # False when a peer published first; validated below either way
        atomic_write(path, json.dumps(doc, indent=1), exclusive=True)
    published = read_manifest(run_dir)
    if published.get("schema") != FLEET_SCHEMA:
        raise ReproError(
            f"fleet manifest {path} has schema "
            f"{published.get('schema')!r}, expected {FLEET_SCHEMA}"
        )
    stale = published.get("jobs") != fingerprints
    if republish and (stale or _lease_ttl(published) != lease_ttl_s):
        atomic_write(path, json.dumps(doc, indent=1))
        return doc
    if stale and published.get("model") != model:
        raise ReproError(
            f"this worker runs other code than fleet run {run_id!r} was "
            f"created with (model {model[:12]} here, "
            f"{str(published.get('model'))[:12]} in the manifest); join "
            "from a checkout of the same sources, or pick a fresh --run-id"
        )
    if stale:
        raise ReproError(
            f"fleet run {run_id!r} was created for a different job list "
            f"({len(published.get('jobs', []))} job(s) vs {len(fingerprints)} "
            "here); joining workers must be invoked with the same sweep "
            "arguments, or pick a fresh --run-id"
        )
    return published


def _lease_ttl(manifest: dict[str, Any]) -> float:
    """The run's lease TTL; a manifest that predates the field means
    the default 5 s."""
    return manifest.get("lease_ttl_s", 5.0)


def read_manifest(run_dir: Path, *, missing_ok: bool = False) -> dict[str, Any]:
    """The published manifest; a :class:`ReproError` naming it when it
    is missing (a crash before publication) or unreadable.  With
    ``missing_ok`` either reads as ``{}``: a run that is still starting
    has no manifest yet."""
    path = Path(run_dir) / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        if missing_ok:
            return {}
        raise ReproError(
            f"fleet manifest {path} is unreadable: {exc}"
        ) from None


# ----------------------------------------------------------------------
# shared-state readers

def read_logs(
    run_dir: Path, logs: dict[str, WorkerLog] | None = None
) -> dict[str, WorkerLog]:
    """worker -> its log (:func:`~repro.resilience.journal.read_log`),
    in sorted order, so the first completion of a fingerprint — the
    merge's winner — is the same for every reader.  Given an earlier
    call's ``logs``, reads only what was appended since into them.
    """
    logs = logs or {}
    return {
        path.stem: read_log(path, logs.get(path.stem))
        for path in sorted(Path(run_dir, "journals").glob("*.ndjson"))
    }


def completions(
    logs: dict[str, WorkerLog],
) -> dict[str, list[tuple[str, dict[str, Any]]]]:
    """fingerprint -> every (worker, completion line) of ``logs``; the
    first is the winner."""
    out: dict[str, list[tuple[str, dict[str, Any]]]] = {}
    for worker, log in logs.items():
        for fp, line in log.completions.items():
            out.setdefault(fp, []).append((worker, line))
    return out


def scan_completed(run_dir: Path) -> dict[str, tuple[str, Any]]:
    """fingerprint -> (worker, payload), first write wins."""
    return {
        fp: (lines[0][0], lines[0][1].get("payload"))
        for fp, lines in completions(read_logs(run_dir)).items()
    }


def scan_quarantined(run_dir: Path) -> dict[str, dict[str, Any]]:
    """fingerprint -> quarantine marker of every poisoned job."""
    out: dict[str, dict[str, Any]] = {}
    for path in sorted(Path(run_dir, "quarantine").glob("*.json")):
        try:
            out[path.stem] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            out[path.stem] = {"error": "unreadable quarantine marker"}
    return out


def flight_dumps(run_dir: Path) -> list[Path]:
    """The run's flight-recorder dumps, sorted by name."""
    from repro.obs.flight import list_flight_dumps

    return list_flight_dumps(Path(run_dir, "flightrec"))


# ----------------------------------------------------------------------
# the worker loop

class _Heartbeat:
    """Background heartbeats for one held lease."""

    def __init__(self, leases: LeaseDir, lease, interval_s: float,
                 journal: RunJournal, ordinal: int) -> None:
        self._leases = leases
        self._lease = lease
        self._interval = interval_s
        self._journal = journal
        self._ordinal = ordinal
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._leases.heartbeat(self._lease):
                self._journal.emit(
                    "lease-lost", job=self._ordinal, owner=self._lease.owner
                )
                return
            self._journal.emit(
                "heartbeat", job=self._ordinal, owner=self._lease.owner,
                epoch=self._lease.epoch,
            )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _quarantine_job(run_dir: Path, fp: str, info: dict[str, Any]) -> None:
    """Publish a poisoned-job marker (atomic, first writer wins)."""
    try:
        atomic_write(
            run_dir / "quarantine" / f"{fp}.json",
            json.dumps(info, separators=(",", ":")),
            exclusive=True,
        )
    except OSError:
        pass


def fleet_worker(
    specs: Sequence["JobSpec"], cfg: ResilienceConfig, *, lethal: bool = True
) -> int:
    """Run one worker until every manifest job is resolved.

    Claims jobs lease-by-lease in ordinal order, executes them in-process
    on the supervision :class:`~repro.resilience.supervisor.Ladder` (its
    events go to this worker's log and its flight recorder), journals
    completions to the same log, and steals from dead or stalled peers.
    Each attempt restarts the activity sink's buffer, so a completion
    carries only the successful attempt's activity.  ``lethal`` is off
    for the coordinator's in-process worker: chaos then never kills or
    stalls it, and ``interrupt-after`` interrupts it instead.  Returns
    the number of jobs this worker completed.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.stitch import ActivitySink
    from repro.prof.activity import ActivityHub
    from repro.sanitize.session import sanitize_session
    from repro.sched.runner import execute_job

    chaos = cfg.chaos
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    manifest = ensure_manifest(
        run_dir, specs, run_id=cfg.run_id, command=cfg.command,
        lease_ttl_s=cfg.lease_ttl_s,
    )
    fingerprints: list[str] = manifest["jobs"]
    spec_by_fp = dict(zip(fingerprints, specs))
    leases = LeaseDir(
        run_dir / "leases",
        ttl_s=cfg.lease_ttl_s,
        skew_s=chaos.lease_skew_s if chaos is not None else 0.0,
    )
    journal = RunJournal.attach(
        run_dir / "journals", run_id=cfg.worker_id,
        meta={"command": cfg.command, "fleet_run": cfg.run_id},
    )
    # observability plane: a worker-local hub captures the benchmark's
    # own activity (kernels, copies, launches) through the ambient
    # session, puts the successful attempt's records on the job's
    # completion line for trace stitching, and keeps a flight-recorder
    # ring (ladder events included) for post-mortems, keyed by the
    # job's fingerprint
    hub = ActivityHub()
    sink = ActivitySink()
    hub.subscribe(sink)
    recorder = FlightRecorder(worker=cfg.worker_id, run_id=cfg.run_id)
    hub.subscribe(recorder)

    def report(name: str, **args: Any) -> None:
        journal.emit(name, **args)
        hub.emit("sched", name, track="scheduler", **args)

    def flight_dump(reason: str) -> None:
        if len(recorder):
            try:
                recorder.dump(run_dir / "flightrec", reason=reason)
            except OSError:  # pragma: no cover - best-effort on the way down
                pass

    logs: dict[str, WorkerLog] = {}

    def resolved() -> set[str]:
        """Fingerprints nobody should claim: completed or poisoned."""
        nonlocal logs
        logs = read_logs(run_dir, logs)
        return set(completions(logs)).union(scan_quarantined(run_dir))

    completed_here = 0
    try:
        while True:
            done = resolved()
            if all(fp in done for fp in fingerprints):
                break
            progress = False
            for ordinal, fp in enumerate(fingerprints):
                if fp in done or fp in journal.completed:
                    continue
                lease = leases.claim(fp, cfg.worker_id)
                if lease is None:
                    continue
                if fp in resolved():
                    # a peer resolved the job and dropped its lease
                    # between the scan and the claim
                    leases.release(lease)
                    continue
                progress = True
                journal.emit(
                    "lease-steal" if lease.epoch else "lease-acquire",
                    job=ordinal, owner=cfg.worker_id, epoch=lease.epoch,
                    stolen_from=lease.stolen_from,
                )
                action = (
                    chaos.fleet_outcome(ordinal, lease.epoch)
                    if chaos is not None else "ok"
                )
                corrupt = (
                    chaos is not None
                    and chaos.lease_write_corrupts(ordinal, lease.epoch)
                )
                if action == "kill" and lethal:
                    journal.emit(
                        "chaos-kill", job=ordinal, epoch=lease.epoch
                    )
                    flight_dump(f"chaos-kill-{ordinal}")
                    os._exit(9)
                if corrupt:
                    # tear our own lease on disk: peers now read garbage
                    # and may steal immediately; skip heartbeats so the
                    # corruption stays observable
                    journal.emit("lease-corrupt", job=ordinal)
                    path = leases.path(fp)
                    try:
                        data = path.read_bytes()
                        path.write_bytes(data[: max(1, len(data) // 2)])
                    except OSError:
                        pass
                recorder.job = fp
                spec = spec_by_fp[fp]
                ladder = Ladder(
                    ordinal, spec.benchmark, spec.backend, cfg, report
                )

                def attempt():
                    sink.begin()
                    if ladder.attempts or ladder.backend != spec.backend:
                        # a retry: publish when it started, so the
                        # coordinator times the attempt, not the claim
                        lease.attempt_at = time.time()
                        leases.heartbeat(lease)
                    return execute_job(replace(spec, backend=ladder.backend))

                if action == "stall" and lethal:
                    # miss every heartbeat and outlive the TTL: a peer
                    # steals the lease mid-run and our completion below
                    # lands as a validated duplicate
                    journal.emit(
                        "heartbeat-stall", job=ordinal, epoch=lease.epoch
                    )
                    time.sleep(cfg.lease_ttl_s + 2 * cfg.heartbeat_s)
                    with sanitize_session(hub=hub):
                        payload = ladder.run(attempt, cfg.job_timeout_s)
                else:
                    with _Heartbeat(
                        leases, lease, cfg.heartbeat_s, journal, ordinal
                    ) as hb:
                        if corrupt:
                            hb._stop.set()
                        with sanitize_session(hub=hub):
                            payload = ladder.run(attempt, cfg.job_timeout_s)
                if payload is None:
                    _quarantine_job(run_dir, fp, {
                        "benchmark": spec.benchmark,
                        "job": ordinal,
                        "worker": cfg.worker_id,
                        "attempts": ladder.attempts,
                    })
                    flight_dump(f"quarantine-{ordinal}")
                    leases.release(lease)
                    continue
                journal.record(fp, payload, meta={
                    "benchmark": spec.benchmark,
                    "worker": cfg.worker_id,
                    "epoch": lease.epoch,
                }, activity=sink.take())
                completed_here += 1
                leases.release(lease)
                if (
                    not lethal and chaos is not None
                    and chaos.interrupts_after(completed_here)
                ):
                    # deterministic SIGINT analog for interrupt-and-resume
                    raise KeyboardInterrupt
                break  # ``done`` is a job's run time old: rescan first
            if not progress:
                time.sleep(POLL_S)
        journal.emit("worker-exit", completed=completed_here)
    except ReproError:
        # exiting nonzero (entry point maps this to exit 21): preserve
        # the last activity for the post-mortem before unwinding
        flight_dump("fatal")
        raise
    finally:
        journal.close()
    return completed_here


def _fleet_worker_entry(specs, cfg: ResilienceConfig) -> None:
    """Child-process entry point of a local worker."""
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        fleet_worker(specs, cfg)
    except ReproError:
        os._exit(21)
    os._exit(0)


# ----------------------------------------------------------------------
# merge

def merge_fleet(
    run_dir: Path,
    specs: Sequence["JobSpec"],
    *,
    cfg: ResilienceConfig,
    cache: "ResultCache | None" = None,
    stores: dict[int, str] | None = None,
    events_after: dict[str, int] | None = None,
) -> list[dict[str, Any]]:
    """Deterministic first-write-wins merge of all worker journals,
    job by job in manifest order (``specs`` match it: every caller
    published or validated the manifest first).

    First folds the logs' events into ``cfg.telemetry`` through
    :meth:`SchedTelemetry.observe` (``events_after`` maps a worker to
    how many of its leading events an earlier invocation logged, which
    are skipped), so even a quarantined run reports its ladder
    counters.  Every duplicated completion is checksum-compared
    against the winner; a mismatch raises
    :class:`FleetMergeError` (deterministic jobs cannot legitimately
    disagree, so a conflict means corruption or a code-version split
    across the fleet).  With ``stores`` (job ordinal -> cache key) the
    coordinator stores the jobs it executed without a second lookup;
    otherwise every payload is cross-checked against any result-cache
    entry and stored when absent.  The manifest's quarantined jobs raise
    :class:`QuarantineError`, named by their current ordinals, once
    everything else is stored; a marker of a job a narrower ``--resume``
    dropped is not this run's.
    """
    from repro.sched.cache import _payload_checksum

    tele = cfg.telemetry
    after = events_after or {}
    logs = read_logs(run_dir)
    for worker, log in logs.items():
        for ev in log.events[after.get(worker, 0):]:
            tele.observe(ev["event"], **ev)
    all_records = completions(logs)
    fingerprints = read_manifest(run_dir)["jobs"]
    payloads: list[dict[str, Any] | None] = []
    for ordinal, (fp, spec) in enumerate(zip(fingerprints, specs)):
        records = all_records.get(fp)
        if not records:
            payloads.append(None)
            continue
        winner_worker, line = records[0]
        winner = line.get("payload")
        checksum = _payload_checksum(winner)
        for other_worker, other in records[1:]:
            tele.observe("duplicate-completion")
            if _payload_checksum(other.get("payload")) != checksum:
                raise FleetMergeError(
                    f"fleet journals disagree on job {ordinal} "
                    f"({spec.benchmark}): worker {winner_worker!r} vs "
                    f"{other_worker!r}; refusing to merge"
                )
        if cache is not None and stores is not None:
            if ordinal in stores:
                cache.put(stores[ordinal], winner)
        elif cache is not None:
            key = cache.key_for(spec)
            existing = cache.get(key)
            if existing is None:
                cache.put(key, winner)
            elif _payload_checksum(existing) != checksum:
                raise FleetMergeError(
                    f"fleet payload for job {ordinal} ({spec.benchmark}) "
                    "disagrees with the result cache; refusing to merge"
                )
        payloads.append(winner)
    markers = scan_quarantined(run_dir)
    quarantined = [
        {**markers[fp], "job": ordinal}
        for ordinal, fp in enumerate(fingerprints) if fp in markers
    ]
    if quarantined:
        for info in quarantined:
            tele.observe("quarantine", **info)
        names = ", ".join(
            f"{q.get('benchmark', '?')}#{q['job']}" for q in quarantined
        )
        hint = (
            f"; completed work is journaled as run {tele.journal_run_id}"
            if tele.journal_run_id else ""
        )
        raise QuarantineError(
            f"{len(quarantined)} job(s) quarantined after retry "
            f"exhaustion: {names}{hint}"
        )
    missing = payloads.count(None)
    if missing:
        raise ReproError(
            f"fleet run under {run_dir} is incomplete: "
            f"{missing}/{len(fingerprints)} job(s) never journaled"
        )
    # the run is merged: expired leases and steal remnants are garbage
    _sweep_leases(run_dir)
    return payloads  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the one snapshot: repro top, journal ls/show/gc, --metrics

def _sweep_leases(run_dir: Path) -> dict[str, int]:
    """Drop the run's expired leases (by the manifest's TTL) and steal
    remnants."""
    if not Path(run_dir, "leases").is_dir():
        return {"evicted": 0, "remnants": 0}
    ttl_s = _lease_ttl(read_manifest(run_dir, missing_ok=True))
    return LeaseDir(Path(run_dir, "leases"), ttl_s=ttl_s).sweep_stale()


def fleet_status(
    run_dir: str | Path, *, now: float | None = None
) -> dict[str, Any]:
    """One read-only snapshot of a run directory.

    Overall progress and ETA, per-worker health and counters, and the
    leases currently held.  Every count — the run's and each worker's —
    covers only the manifest's current jobs, so a run resumed with a
    narrower job list reads the same to every tool.  A run still
    starting (no manifest yet) reads as zero jobs.  Nothing is written:
    watching a run cannot perturb it.  A worker is ``done`` once it
    logged ``worker-exit``, ``stale`` when its newest event or executed
    completion is older than the manifest's lease TTL, ``live``
    otherwise.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ReproError(f"no fleet run directory at {run_dir}")
    now = time.time() if now is None else now
    manifest = read_manifest(run_dir, missing_ok=True)
    ttl_s = _lease_ttl(manifest)
    fingerprints: list[str] = manifest.get("jobs") or []
    current = set(fingerprints)

    workers: list[dict[str, Any]] = []
    completed: set[str] = set()
    seen_at: list[float] = []   #: wall clock of every event and completion
    for worker, log in read_logs(run_dir).items():
        done = current.intersection(log.completions)
        completed |= done
        tele = SchedTelemetry()
        for ev in log.events:
            tele.observe(ev["event"], **ev)
        seen = [
            r["t"] for r in (*log.events, *log.completions.values())
            if isinstance(r.get("t"), (int, float))
        ]
        seen_at += seen
        last = max(seen, default=None)
        if any(ev["event"] == "worker-exit" for ev in log.events):
            state = "done"
        elif last is not None and now - last > ttl_s:
            state = "stale"
        else:
            state = "live"
        workers.append({
            "worker": worker,
            "completed": len(done),
            "leases": tele.leases_acquired,
            "stolen": tele.leases_stolen,
            "heartbeats": tele.heartbeats,
            "retries": tele.retries,
            "errors": tele.timeouts + tele.crashes + tele.job_errors,
            "quarantined": len(tele.quarantined),
            "last_seen": last,
            "state": state,
        })

    leases: list[dict[str, Any]] = []
    if (run_dir / "leases").is_dir():
        lease_dir = LeaseDir(run_dir / "leases", ttl_s=ttl_s, now=lambda: now)
        for path in sorted(lease_dir.root.glob("*.lease")):
            job = path.name[: -len(".lease")]
            try:
                lease = lease_dir.read(job)
            except ValueError:
                leases.append({
                    "job": job[:12], "owner": "<corrupt>", "epoch": None,
                    "age_s": None, "stale": True,
                })
                continue
            if lease is None:
                continue
            leases.append({
                "job": job[:12],
                "ordinal": fingerprints.index(job) if job in current else None,
                "owner": lease.owner,
                "epoch": lease.epoch,
                "age_s": max(0.0, now - lease.heartbeat_at),
                "stale": lease_dir.is_stale(lease),
            })

    quarantined = len(current.intersection(scan_quarantined(run_dir)))
    jobs_total = len(fingerprints)
    remaining = max(0, jobs_total - len(completed) - quarantined)
    eta_s: float | None = None
    if remaining == 0 and jobs_total:
        eta_s = 0.0
    elif completed and seen_at:
        rate = len(completed) / max(1e-6, now - min(seen_at))
        eta_s = remaining / rate
    return {
        "run_id": manifest.get("run_id", run_dir.name.removesuffix(".fleet")),
        "command": manifest.get("command", ""),
        "jobs_total": jobs_total,
        "jobs_completed": len(completed),
        "jobs_remaining": remaining,
        "quarantined": quarantined,
        "flight_dumps": len(flight_dumps(run_dir)),
        "eta_s": eta_s,
        "leases_acquired": sum(w["leases"] for w in workers),
        "leases_stolen": sum(w["stolen"] for w in workers),
        "heartbeats": sum(w["heartbeats"] for w in workers),
        "active_leases": leases,
        "workers": workers,
    }


def _dir_mtime(path: Path) -> float:
    """Newest mtime under a run directory (activity, not creation)."""
    newest = path.stat().st_mtime
    for child in path.rglob("*"):
        try:
            newest = max(newest, child.stat().st_mtime)
        except OSError:
            continue
    return newest


def list_runs(root: str | Path) -> list[dict[str, Any]]:
    """Every run directory under a journal directory, newest first.

    Each entry carries ``run_id``, ``command``, ``jobs`` (the manifest's
    completed jobs), ``total`` (None before the manifest is published),
    ``mtime`` and ``path``.
    """
    root = Path(root)
    out: list[dict[str, Any]] = []
    for path in root.glob("*.fleet") if root.is_dir() else ():
        if not path.is_dir():
            continue
        status = fleet_status(path)
        out.append({
            "run_id": path.name[: -len(".fleet")],
            "command": status["command"],
            "jobs": status["jobs_completed"],
            "total": status["jobs_total"] or None,
            "mtime": _dir_mtime(path),
            "path": str(path),
        })
    out.sort(key=lambda e: (-e["mtime"], e["run_id"]))
    return out


def gc_runs(
    root: str | Path,
    *,
    older_than_days: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Prune a journal directory so long-lived ones stay bounded.

    Two passes:

    * **age-based** (only with ``older_than_days``): delete every run
      directory whose newest mtime is older than the cutoff, flight
      dumps included;
    * **stale-artifact cleanup** (always): expired lease files of every
      surviving run, ``stolen/`` steal remnants, and orphaned ``*.tmp``
      files from interrupted atomic writes.

    Returns a summary dict; with ``dry_run`` nothing is deleted and
    ``removed`` lists what would have been.
    """
    import shutil

    now = time.time() if now is None else now
    cutoff = (
        now - older_than_days * 86400.0
        if older_than_days is not None else None
    )
    runs = list_runs(root)
    removed: list[dict[str, Any]] = []
    leases_evicted = remnants = tmps = 0
    for entry in runs:
        path = Path(entry["path"])
        if cutoff is not None and entry["mtime"] < cutoff:
            removed.append({"run_id": entry["run_id"]})
            if not dry_run:
                shutil.rmtree(path, ignore_errors=True)
            continue
        if dry_run:
            continue
        swept = _sweep_leases(path)
        leases_evicted += swept["evicted"]
        remnants += swept["remnants"]
        for tmp in path.rglob("*.tmp"):
            try:
                tmp.unlink()
                tmps += 1
            except OSError:
                pass
    return {
        "removed": removed,
        "kept": len(runs) - len(removed),
        "stale_leases_evicted": leases_evicted,
        "steal_remnants_removed": remnants,
        "tmp_files_removed": tmps,
        "dry_run": dry_run,
    }


# ----------------------------------------------------------------------
# entry points

def run_jobs(
    specs: Sequence["JobSpec"],
    *,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
    config: ResilienceConfig | None = None,
) -> list[dict[str, Any]]:
    """Run ``specs`` under supervision; order-preserving payload list.

    Resolves each job once, in order: already journaled in the run
    directory (a ``resume-skip``), else one result-cache lookup, whose
    hit is journaled (``source: cache``) and never dispatched.  The
    rest runs as one in-process worker when ``jobs == 1`` or one job
    is left (mode ``serial``), or as ``jobs`` supervised local worker
    processes (mode ``fleet``); then the journals merge and the
    executed payloads go into the cache.  ``jobs == 0`` makes this
    process one worker of an existing run instead (:func:`join_fleet`).
    A config without a ``run_id`` runs in a temporary run directory,
    removed after the merge.
    """
    config = config or ResilienceConfig()
    if jobs == 0:
        return join_fleet(specs, config, cache=cache)
    if config.run_id is not None:
        config.telemetry.journal_run_id = config.run_id
        return _coordinate(specs, jobs, cache, config)
    with tempfile.TemporaryDirectory(prefix="repro-run-") as tmp:
        return _coordinate(
            specs, jobs, cache, replace(config, run_id="run", journal_root=tmp)
        )


def _coordinate(
    specs: Sequence["JobSpec"],
    jobs: int,
    cache: "ResultCache | None",
    cfg: ResilienceConfig,
) -> list[dict[str, Any]]:
    tele = cfg.telemetry
    chaos = cfg.chaos
    if cache is not None and chaos is not None and cache.chaos is None:
        cache.chaos = chaos
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    fingerprints = ensure_manifest(
        run_dir, specs, run_id=cfg.run_id, command=cfg.command,
        lease_ttl_s=cfg.lease_ttl_s, republish=True,
    )["jobs"]
    logs = read_logs(run_dir)
    journaled = completions(logs)
    quarantined = scan_quarantined(run_dir)
    # the events a resumed run replayed, which its merge skips
    events_after = {worker: len(log.events) for worker, log in logs.items()}
    # the in-process worker's id derives from the run id, so a resumed
    # serial run appends to the same journal and stitches the same trace
    local = replace(cfg, worker_id=cfg.run_id)
    todo: list[int] = []
    stores: dict[int, str] = {}
    journal = None
    try:
        for i, (spec, fp) in enumerate(zip(specs, fingerprints)):
            if fp in journaled:
                tele.observe("resume-skip", benchmark=spec.benchmark, job=i)
                continue
            key = cache.key_for(spec) if cache is not None else None
            hit = cache.get(key) if key is not None else None
            if hit is None:
                todo.append(i)
                if key is not None:
                    stores[i] = key
                if fp in quarantined:
                    # a resumed run retries what an earlier one quarantined
                    (run_dir / "quarantine" / f"{fp}.json").unlink(
                        missing_ok=True
                    )
                continue
            if journal is None:
                journal = RunJournal.attach(
                    run_dir / "journals", run_id=local.worker_id,
                    meta={"command": cfg.command, "fleet_run": cfg.run_id},
                )
            journal.record(fp, hit, meta={
                "benchmark": spec.benchmark, "source": "cache",
            })
    finally:
        if journal is not None:
            journal.close()
    tele.mode = "fleet" if jobs > 1 and len(todo) > 1 else "serial"
    try:
        if tele.mode == "fleet":
            tele.fleet_workers = min(jobs, len(todo))
            reason = _supervise(specs, fingerprints, todo, jobs, cfg)
            if reason is not None:
                tele.mode = "fleet-fallback"
                tele.fallbacks.append({
                    "from": "fleet", "to": "in-process", "reason": reason,
                })
                fleet_worker(specs, local, lethal=False)
        elif todo:
            tele.fleet_workers = 1
            fleet_worker(specs, local, lethal=False)
    finally:
        done = scan_completed(run_dir)
        tele.completed = sum(fingerprints[i] in done for i in todo)
    return merge_fleet(
        run_dir, specs, cfg=cfg, cache=cache, stores=stores,
        events_after=events_after,
    )


def _stop(proc) -> None:
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=5)
    if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
        proc.kill()
        proc.join(timeout=5)


def _supervise(
    specs: Sequence["JobSpec"],
    fingerprints: list[str],
    todo: list[int],
    jobs: int,
    cfg: ResilienceConfig,
) -> str | None:
    """Run the ``todo`` jobs on up to ``jobs`` local worker processes.

    Returns once every one is journaled or quarantined (None), or with
    the reason the run must fall back in-process: a worker could not
    be started, or died holding no lease.  Once the jobs are resolved,
    the workers get :data:`_EXIT_GRACE_S` to exit on their own; workers
    still running on the way out are stopped and their leases expired.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    chaos = cfg.chaos
    timeout = cfg.job_timeout_s
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    leases = LeaseDir(run_dir / "leases", ttl_s=cfg.lease_ttl_s)
    ordinal_of = {fingerprints[i]: i for i in todo}
    ladders: dict[int, Ladder] = {}
    procs: dict[str, Any] = {}
    journal: RunJournal | None = None
    logs: dict[str, WorkerLog] = {}
    spawned = 0

    def report(name: str, **args: Any) -> None:
        # the coordinator's ladder events go to its own log, the one it
        # journals cache hits to
        nonlocal journal
        if journal is None:
            journal = RunJournal.attach(
                run_dir / "journals", run_id=cfg.run_id,
                meta={"command": cfg.command, "fleet_run": cfg.run_id},
            )
        journal.emit(name, **args)

    def charge(lease, exc: Exception, resolved: set[str]) -> None:
        """Charge a lost attempt to the job whose lease it held, then
        expire the lease so the next claim steals it.  A job already
        journaled or quarantined is not charged again."""
        i = ordinal_of.get(lease.job)
        if i is not None and lease.job not in resolved:
            spec = specs[i]
            ladder = ladders.setdefault(
                i, Ladder(i, spec.benchmark, spec.backend, cfg, report)
            )
            if not ladder.failed(exc):
                _quarantine_job(run_dir, lease.job, {
                    "benchmark": spec.benchmark, "job": i,
                    "worker": cfg.run_id, "attempts": ladder.attempts,
                })
                resolved.add(lease.job)
        leases.expire(lease)

    try:
        while True:
            # who is dead is settled before the lease scan, so a dead
            # worker's last claim is always seen
            dead = [w for w, p in procs.items() if not p.is_alive()]
            logs = read_logs(run_dir, logs)
            journaled = set(completions(logs))
            resolved = journaled.union(scan_quarantined(run_dir))
            pending = [fp for fp in ordinal_of if fp not in resolved]
            if chaos is not None and chaos.interrupts_after(
                len(journaled.intersection(ordinal_of))
            ):
                # deterministic SIGINT analog for interrupt-and-resume
                raise KeyboardInterrupt
            if not pending:
                deadline = time.monotonic() + _EXIT_GRACE_S
                for proc in procs.values():
                    proc.join(max(0.0, deadline - time.monotonic()))
                return None
            held = {lease.owner: lease for lease in leases.held()}
            for wid in dead:
                proc = procs.pop(wid)
                proc.join()
                if proc.exitcode == 0:
                    continue
                lease = held.get(wid)
                if lease is None:
                    return (
                        f"worker {wid} died holding no lease "
                        f"(exit {proc.exitcode})"
                    )
                charge(lease, WorkerCrash(
                    f"worker {wid} died holding job "
                    f"{ordinal_of.get(lease.job, '?')} (exit {proc.exitcode})"
                ), resolved)
            for wid, proc in list(procs.items()):
                lease = held.get(wid)
                if (
                    timeout and lease is not None
                    and time.time() - lease.attempt_at > _KILL_AFTER * timeout
                ):
                    del procs[wid]
                    _stop(proc)
                    charge(lease, JobTimeout(
                        f"job {ordinal_of.get(lease.job, '?')} exceeded "
                        f"{timeout:g}s wall clock; worker {wid} killed"
                    ), resolved)
            while len(procs) < min(jobs, len(pending)):
                wid = f"{cfg.worker_id}-{spawned:02d}"
                spawned += 1
                wcfg = replace(cfg, worker_id=wid, telemetry=SchedTelemetry())
                try:
                    proc = ctx.Process(
                        target=_fleet_worker_entry, args=(list(specs), wcfg),
                        daemon=True,
                    )
                    proc.start()
                except OSError as exc:
                    return f"worker processes unavailable: {exc}"
                procs[wid] = proc
            time.sleep(POLL_S)
    finally:
        # never leak child processes: Ctrl-C, chaos interrupts, and
        # fallbacks all pass through here; a stopped worker's leases
        # are expired so whoever continues need not wait out the TTL
        for proc in procs.values():
            _stop(proc)
        for lease in leases.held():
            if lease.owner in procs:
                leases.expire(lease)
        if journal is not None:
            journal.close()


def join_fleet(
    specs: Sequence["JobSpec"],
    cfg: ResilienceConfig,
    *,
    cache: "ResultCache | None" = None,
) -> list[dict[str, Any]]:
    """Run this process as one worker of the run, then merge.

    The cross-machine entry point (``repro sweep --join <run-id>``):
    every participating invocation points at the same shared journal
    directory and the same sweep arguments.  Each drains the queue
    until every job is resolved, then performs the (idempotent,
    deterministic) merge — so whichever worker you gave ``--out`` to
    writes the byte-identical document, and a late ``--join`` against a
    finished run is simply a merge with nothing left to claim.
    ``completed`` counts every merged job.
    """
    tele = cfg.telemetry
    tele.mode = "fleet"
    tele.fleet_workers = 1
    tele.journal_run_id = cfg.run_id
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    completed = fleet_worker(specs, cfg)
    tele.resume_skips = len(specs) - completed
    payloads = merge_fleet(run_dir, specs, cfg=cfg, cache=cache)
    tele.completed = len(payloads)
    return payloads
