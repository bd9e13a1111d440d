"""Journal-backed work-stealing fleet for distributed sweeps.

``run_fleet`` turns one sweep into a crash-tolerant cooperation of
independent worker *processes* — on one machine (``--fleet N``) or on
several machines sharing a directory (``--join <run-id>`` per worker).
Nothing coordinates the workers except the filesystem:

* the **manifest** (``manifest.json``) pins the run's job list — one
  :func:`~repro.resilience.journal.job_fingerprint` per
  :class:`~repro.sched.runner.JobSpec`, in spec order.  The first
  worker to arrive creates it atomically (hard-link publish); everyone
  else validates their own job list against it, so two operators who
  typed different sweeps into the same run id fail loudly instead of
  merging garbage;
* each job is claimed through an atomic **lease**
  (:mod:`~repro.resilience.lease`): ``O_EXCL`` create, atomic
  heartbeats, rename-based stealing once a lease outlives its TTL;
* each worker appends completed payloads to its **own**
  ``repro-journal/1`` NDJSON journal under ``journals/`` — append-only,
  never contended;
* health events (lease acquires, steals, heartbeats, stalls, kills,
  completions, and the supervision ladder's failures, retries,
  fallbacks and quarantines) stream to per-worker NDJSON **event
  logs** under ``events/``, which the merging process replays through
  :meth:`~repro.resilience.supervisor.SchedTelemetry.observe` and
  re-emits as ``sched`` activity records.

Every file here is published or appended through
:mod:`repro.common.durable` (the "Durability" section of
``docs/resilience.md``).

The **merge** is deterministic and idempotent: payloads are collected
per fingerprint across all worker journals in sorted worker order,
first write wins, and every duplicate (a stalled worker finishing a
stolen job) is cross-validated by SHA-256 checksum against the winner
— and against any :class:`~repro.sched.cache.ResultCache` entry — so
the final payload list is byte-identical to a serial run regardless of
worker count, death order, or duplicate completions.  A disagreement
is a hard error, never a silent pick.

Fault tolerance is layered: a worker that dies mid-lease is stolen
from after one TTL; a worker that stalls heartbeats is stolen from and
its late completion lands as a (validated) duplicate; if *every*
worker dies, the coordinating process finishes the remaining jobs
in-process (``fleet-fallback``, exit code 3) — the same degradation
ladder the supervised pool uses.  Chaos decisions
(:meth:`~repro.faults.plan.FaultPlan.fleet_outcome`) are keyed on
``(job ordinal, lease epoch)``, so injected kill/stall schedules are
reproducible across any worker count.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.common.durable import Appender, atomic_write, read_records
from repro.common.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.resilience.journal import (
    DEFAULT_JOURNAL_DIR,
    RunJournal,
    job_fingerprint,
    new_run_id,
)
from repro.resilience.lease import LeaseDir
from repro.resilience.supervisor import Ladder, QuarantineError, SchedTelemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prof.activity import ActivityHub
    from repro.sched.cache import ResultCache
    from repro.sched.runner import JobSpec

__all__ = [
    "FLEET_SCHEMA",
    "FleetConfig",
    "FleetMergeError",
    "fleet_dir",
    "ensure_manifest",
    "read_manifest",
    "fleet_worker",
    "run_fleet",
    "join_fleet",
    "merge_fleet",
]

FLEET_SCHEMA = "repro-fleet/1"


class FleetMergeError(ReproError):
    """Worker journals (or the cache) disagree about a job's payload."""


@dataclass
class FleetConfig:
    """Shape and policy of one fleet run.

    ``workers`` is the local process count for :func:`run_fleet`;
    :func:`join_fleet` ignores it (one invocation is one worker).
    ``lethal`` gates the chaos faults that really terminate the worker
    process — the coordinator's in-process fallback runs with it off
    so an injected kill cannot take down the merge.  ``max_retries``,
    ``job_timeout_s`` and ``chaos`` drive each job's
    :class:`~repro.resilience.supervisor.Ladder`, as in the pool.
    """

    run_id: str = field(default_factory=new_run_id)
    worker_id: str = ""
    workers: int = 2
    journal_root: str | Path = DEFAULT_JOURNAL_DIR
    command: str = "fleet"
    heartbeat_s: float = 0.5
    lease_ttl_s: float = 5.0
    poll_s: float = 0.05
    join_timeout_s: float = 120.0
    max_retries: int = 2
    job_timeout_s: float | None = None
    chaos: FaultPlan | None = None
    lethal: bool = True
    hub: "ActivityHub | None" = field(default=None, repr=False, compare=False)
    telemetry: SchedTelemetry = field(default_factory=SchedTelemetry)

    def __post_init__(self) -> None:
        if not self.worker_id:
            self.worker_id = f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        if self.lease_ttl_s <= 0:
            raise ReproError(
                f"lease TTL must be positive, got {self.lease_ttl_s}"
            )
        if self.heartbeat_s <= 0 or self.heartbeat_s >= self.lease_ttl_s:
            raise ReproError(
                f"heartbeat interval must be in (0, lease TTL); got "
                f"{self.heartbeat_s} vs TTL {self.lease_ttl_s}"
            )


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
        "values": list(spec.values) if spec.values is not None else None,
        "system": spec.system,
        "backend": spec.backend,
    }


def ensure_manifest(
    run_dir: Path,
    specs: Sequence["JobSpec"],
    *,
    run_id: str,
    command: str,
) -> dict[str, Any]:
    """Create (first arrival) or validate (everyone else) the manifest.

    Publication is an exclusive
    :func:`~repro.common.durable.atomic_write` (a hard link): it fails
    for every worker but one, and no reader ever observes a partial
    manifest.  A joining worker whose own spec list hashes
    differently fails loudly: half a fleet computing a different sweep
    must not share journals with this one.
    """
    fingerprints = [job_fingerprint(s) for s in specs]
    path = run_dir / "manifest.json"
    doc = {
        "schema": FLEET_SCHEMA,
        "run_id": run_id,
        "command": command,
        "jobs": fingerprints,
        "specs": [_spec_as_dict(s) for s in specs],
    }
    for sub in ("journals", "leases", "events", "quarantine"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    # False when a peer published first; validated below either way
    atomic_write(path, json.dumps(doc, indent=1), exclusive=True)
    published = read_manifest(run_dir)
    if published.get("schema") != FLEET_SCHEMA:
        raise ReproError(
            f"fleet manifest {path} has schema "
            f"{published.get('schema')!r}, expected {FLEET_SCHEMA}"
        )
    if published.get("jobs") != fingerprints:
        raise ReproError(
            f"fleet run {run_id!r} was created for a different job list "
            f"({len(published.get('jobs', []))} job(s) vs {len(fingerprints)} "
            "here); joining workers must be invoked with the same sweep "
            "arguments, or pick a fresh --run-id"
        )
    return published


def read_manifest(run_dir: Path) -> dict[str, Any]:
    """The published manifest; a :class:`ReproError` naming it when it
    is missing (a crash before publication) or unreadable."""
    path = run_dir / "manifest.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"fleet manifest {path} is unreadable: {exc}"
        ) from None


# ----------------------------------------------------------------------
# shared-state scans

def _scan_completed(run_dir: Path) -> dict[str, tuple[str, Any]]:
    """fingerprint -> (worker journal name, payload), first write wins.

    Worker journals are visited in sorted filename order and each file
    in append order, so the winner for a duplicated fingerprint is the
    same for every scanning process.
    """
    out: dict[str, tuple[str, Any]] = {}
    jdir = run_dir / "journals"
    for path in sorted(jdir.glob("*.ndjson")):
        _, completed = RunJournal._load(path)
        for fp, payload in completed.items():
            out.setdefault(fp, (path.stem, payload))
    return out


def _scan_duplicates(run_dir: Path) -> dict[str, list[tuple[str, Any]]]:
    """fingerprint -> every (worker, payload) recorded, in merge order."""
    out: dict[str, list[tuple[str, Any]]] = {}
    for path in sorted((run_dir / "journals").glob("*.ndjson")):
        _, completed = RunJournal._load(path)
        for fp, payload in completed.items():
            out.setdefault(fp, []).append((path.stem, payload))
    return out


def _scan_quarantined(run_dir: Path) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for path in sorted((run_dir / "quarantine").glob("*.json")):
        try:
            out[path.stem] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            out[path.stem] = {"error": "unreadable quarantine marker"}
    return out


def _resolved(run_dir: Path) -> set[str]:
    """Fingerprints nobody should claim anymore: completed or poisoned."""
    done = set(_scan_completed(run_dir))
    done.update(_scan_quarantined(run_dir))
    return done


# ----------------------------------------------------------------------
# worker-side event log

class _EventLog:
    """Append-only NDJSON health-event stream of one worker."""

    def __init__(self, path: Path, worker_id: str) -> None:
        self.worker_id = worker_id
        self._out = Appender(path)

    def emit(self, event: str, **args: Any) -> None:
        # "t" (wall clock) feeds the read-only monitor's last-seen /
        # ETA columns; it never enters merged payloads or traces
        rec = {
            "event": event, "worker": self.worker_id,
            "t": time.time(), **args,
        }
        self._out.append(rec)

    def close(self) -> None:
        self._out.close()


def _read_events(run_dir: Path) -> list[dict[str, Any]]:
    return [
        ev
        for path in sorted((run_dir / "events").glob("*.ndjson"))
        for ev in read_records(path)
    ]


# ----------------------------------------------------------------------
# the worker loop

class _Heartbeat:
    """Background heartbeats for one held lease."""

    def __init__(self, leases: LeaseDir, lease, interval_s: float,
                 events: _EventLog, ordinal: int) -> None:
        self._leases = leases
        self._lease = lease
        self._interval = interval_s
        self._events = events
        self._ordinal = ordinal
        self._stop = threading.Event()
        self.count = 0
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._leases.heartbeat(self._lease):
                self.lost = True
                self._events.emit(
                    "lease-lost", job=self._ordinal, owner=self._lease.owner
                )
                return
            self.count += 1
            self._events.emit(
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


def fleet_worker(specs: Sequence["JobSpec"], cfg: FleetConfig) -> int:
    """Run one worker until every manifest job is resolved.

    Claims jobs lease-by-lease in ordinal order, executes them in-process
    on the pool's supervision :class:`~repro.resilience.supervisor.Ladder`
    (so a plan injects the same faults as in the pool, and its events go
    to this worker's event log), journals completions to this worker's
    own NDJSON file, and steals from dead or stalled peers.  Each attempt
    restarts the activity sink's buffer, so only the successful
    attempt's activity is published.  Returns the number of jobs this
    worker completed.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.stitch import ActivitySink
    from repro.obs.trace import TraceContext
    from repro.prof.activity import ActivityHub
    from repro.sanitize.session import sanitize_session
    from repro.sched.runner import execute_job

    chaos = cfg.chaos
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    manifest = ensure_manifest(
        run_dir, specs, run_id=cfg.run_id, command=cfg.command
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
    events = _EventLog(
        run_dir / "events" / f"{cfg.worker_id}.ndjson", cfg.worker_id
    )
    # observability plane: a worker-local hub captures the benchmark's
    # own activity (kernels, copies, launches) through the ambient
    # session, publishes successful jobs' records for trace stitching,
    # and keeps a flight-recorder ring for crash post-mortems
    hub = ActivityHub()
    root_ctx = TraceContext.root(cfg.run_id)
    hub.trace = root_ctx
    sink = ActivitySink(
        run_dir / "activity" / f"{cfg.worker_id}.ndjson",
        worker=cfg.worker_id,
    )
    hub.subscribe(sink)
    recorder = FlightRecorder(worker=cfg.worker_id, run_id=cfg.run_id)
    hub.subscribe(recorder)

    def flight_dump(reason: str) -> None:
        if len(recorder):
            try:
                recorder.dump(run_dir / "flightrec", reason=reason)
            except OSError:  # pragma: no cover - best-effort on the way down
                pass

    completed_here = 0
    try:
        while True:
            done = _resolved(run_dir)
            if all(fp in done for fp in fingerprints):
                break
            progress = False
            for ordinal, fp in enumerate(fingerprints):
                if fp in done or fp in journal.completed:
                    continue
                lease = leases.claim(fp, cfg.worker_id)
                if lease is None:
                    continue
                progress = True
                events.emit(
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
                if action == "kill" and cfg.lethal:
                    events.emit(
                        "chaos-kill", job=ordinal, epoch=lease.epoch
                    )
                    flight_dump(f"chaos-kill-{ordinal}")
                    os._exit(9)
                if corrupt:
                    # tear our own lease on disk: peers now read garbage
                    # and may steal immediately; skip heartbeats so the
                    # corruption stays observable
                    events.emit("lease-corrupt", job=ordinal)
                    path = leases.path(fp)
                    try:
                        data = path.read_bytes()
                        path.write_bytes(data[: max(1, len(data) // 2)])
                    except OSError:
                        pass
                job_ctx = root_ctx.job(ordinal)
                spec = spec_by_fp[fp]
                ladder = Ladder(
                    ordinal, spec.benchmark, spec.backend, cfg, events.emit
                )

                def attempt():
                    sink.begin(ordinal)
                    return execute_job(replace(spec, backend=ladder.backend))

                if action == "stall" and cfg.lethal:
                    # miss every heartbeat and outlive the TTL: a peer
                    # steals the lease mid-run and our completion below
                    # lands as a validated duplicate
                    events.emit(
                        "heartbeat-stall", job=ordinal, epoch=lease.epoch
                    )
                    time.sleep(cfg.lease_ttl_s + 2 * cfg.heartbeat_s)
                    with hub.span(job_ctx), sanitize_session(hub=hub):
                        payload = ladder.run(attempt, cfg.job_timeout_s)
                else:
                    with _Heartbeat(
                        leases, lease, cfg.heartbeat_s, events, ordinal
                    ) as hb:
                        if corrupt:
                            hb._stop.set()
                        with hub.span(job_ctx), sanitize_session(hub=hub):
                            payload = ladder.run(attempt, cfg.job_timeout_s)
                if payload is None:
                    sink.abort()
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
                    "job": ordinal,
                    "epoch": lease.epoch,
                    **job_ctx.as_dict(),
                })
                sink.commit()
                completed_here += 1
                released = leases.release(lease)
                events.emit(
                    "job-complete", job=ordinal, epoch=lease.epoch,
                    duplicate=not released,
                )
                break  # ``done`` is a job's run time old: rescan first
            if not progress:
                time.sleep(cfg.poll_s)
        events.emit("worker-exit", completed=completed_here)
    except ReproError:
        # exiting nonzero (entry point maps this to exit 21): preserve
        # the last activity for the post-mortem before unwinding
        flight_dump("fatal")
        raise
    finally:
        journal.close()
        events.close()
        sink.close()
    return completed_here


def _fleet_worker_entry(specs, cfg: FleetConfig) -> None:
    """Child-process entry point for locally spawned fleet workers."""
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

def _emit(hub, name: str, **args: Any) -> None:
    if hub is not None and hub.wants("sched"):
        hub.emit("sched", name, track="fleet", **args)


def merge_fleet(
    run_dir: Path,
    specs: Sequence["JobSpec"],
    *,
    cfg: FleetConfig,
    cache: "ResultCache | None" = None,
) -> list[dict[str, Any]]:
    """Deterministic first-write-wins merge of all worker journals.

    Every duplicated completion is checksum-compared against the
    winner, and every payload against any existing result-cache entry;
    a mismatch raises :class:`FleetMergeError` (deterministic jobs
    cannot legitimately disagree, so a conflict means corruption or a
    code-version split across the fleet).  Replays the workers' event
    logs through :meth:`SchedTelemetry.observe` and re-emits each event
    as a ``fleet-<name>`` ``sched`` record.
    """
    from repro.sched.cache import _payload_checksum
    from repro.sched.runner import _cache_key

    tele = cfg.telemetry
    hub = cfg.hub
    quarantined = _scan_quarantined(run_dir)
    if quarantined:
        for fp, info in quarantined.items():
            tele.quarantined.append({**info, "fingerprint": fp[:12]})
        names = ", ".join(
            f"{q.get('benchmark', '?')}#{q.get('job', '?')}"
            for q in quarantined.values()
        )
        raise QuarantineError(
            f"{len(quarantined)} fleet job(s) quarantined after retry "
            f"exhaustion: {names}; journals kept under {run_dir}"
        )
    all_records = _scan_duplicates(run_dir)
    fingerprints = [job_fingerprint(s) for s in specs]
    missing = [fp for fp in fingerprints if fp not in all_records]
    if missing:
        raise ReproError(
            f"fleet run under {run_dir} is incomplete: "
            f"{len(missing)}/{len(fingerprints)} job(s) never journaled"
        )
    payloads: list[dict[str, Any]] = []
    winners: list[tuple[int, str]] = []
    for ordinal, (fp, spec) in enumerate(zip(fingerprints, specs)):
        records = all_records[fp]
        winner_worker, winner = records[0]
        winners.append((ordinal, winner_worker))
        checksum = _payload_checksum(winner)
        for other_worker, other in records[1:]:
            tele.observe("duplicate-completion")
            _emit(
                hub, "duplicate-completion", job=ordinal,
                winner=winner_worker, duplicate=other_worker,
            )
            if _payload_checksum(other) != checksum:
                raise FleetMergeError(
                    f"fleet journals disagree on job {ordinal} "
                    f"({spec.benchmark}): worker {winner_worker!r} vs "
                    f"{other_worker!r}; refusing to merge"
                )
        if cache is not None:
            key = _cache_key(cache, spec)
            existing = cache.get(key)
            if existing is None:
                cache.put(key, winner)
            elif _payload_checksum(existing) != checksum:
                raise FleetMergeError(
                    f"fleet payload for job {ordinal} ({spec.benchmark}) "
                    "disagrees with the result cache; refusing to merge"
                )
        payloads.append(winner)
    if hub is not None and hub.subscriber_count:
        # thread each winning worker's published activity records into
        # the caller's hub — device timelines and span identities
        # survive the merge instead of collapsing into fleet-* summaries
        from repro.obs.stitch import read_worker_activity
        from repro.prof.ndjson import record_from_json

        by_worker_job: dict[tuple[str, int], list[dict[str, Any]]] = {}
        for worker, lines in read_worker_activity(run_dir).items():
            for obj in lines:
                try:
                    j = int(obj.get("job"))
                except (TypeError, ValueError):
                    continue
                by_worker_job.setdefault((worker, j), []).append(obj)
        for ordinal, worker in winners:
            for obj in by_worker_job.get((worker, ordinal), []):
                rec = record_from_json(obj)
                if not hub.wants(rec.kind):
                    continue
                track = f"{worker}:{rec.track}" if rec.track else worker
                hub.dispatch(replace(
                    rec, track=track,
                    args={
                        **rec.args,
                        "fleet_worker": worker,
                        "fleet_job": ordinal,
                    },
                ))
    for ev in _read_events(run_dir):
        name = ev.pop("event", "event")
        tele.observe(name, **ev)
        _emit(hub, f"fleet-{name}", **ev)
    tele.completed = len(payloads)
    # the run is merged: expired leases and steal remnants are garbage
    LeaseDir(run_dir / "leases", ttl_s=cfg.lease_ttl_s).sweep_stale()
    _emit(
        hub, "fleet-merge", jobs=len(payloads),
        duplicates=tele.duplicate_completions,
        steals=tele.leases_stolen,
    )
    return payloads


# ----------------------------------------------------------------------
# entry points

def run_fleet(
    specs: Sequence["JobSpec"],
    cfg: FleetConfig,
    *,
    cache: "ResultCache | None" = None,
) -> list[dict[str, Any]]:
    """Coordinate ``cfg.workers`` local worker processes, then merge.

    The coordinator owns no jobs itself; it publishes the manifest,
    spawns the workers, and watches the shared directory.  If every
    worker dies with work outstanding (chaos, OOM killer, operator
    ``kill -9``), it finishes the remainder in-process with lethal
    chaos disarmed — the fleet analog of the pool's serial fallback —
    and the merge still produces the byte-identical result.
    """
    import multiprocessing

    tele = cfg.telemetry
    tele.mode = "fleet"
    tele.fleet_workers = max(1, cfg.workers)
    tele.journal_run_id = cfg.run_id
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    ensure_manifest(run_dir, specs, run_id=cfg.run_id, command=cfg.command)
    fingerprints = [job_fingerprint(s) for s in specs]

    ctx = multiprocessing.get_context()
    children: list = []
    for i in range(max(1, cfg.workers)):
        wcfg = replace(
            cfg, worker_id=f"{cfg.worker_id}-{i:02d}", lethal=True,
            telemetry=SchedTelemetry(),
        )
        proc = ctx.Process(
            target=_fleet_worker_entry, args=(list(specs), wcfg), daemon=True
        )
        proc.start()
        children.append(proc)
    _emit(cfg.hub, "fleet-start", workers=len(children), jobs=len(specs))

    deadline = time.monotonic() + cfg.join_timeout_s
    try:
        while True:
            done = _resolved(run_dir)
            if all(fp in done for fp in fingerprints):
                break
            alive = [p for p in children if p.is_alive()]
            if not alive or time.monotonic() > deadline:
                reason = (
                    "every fleet worker died"
                    if not alive else "fleet join timeout"
                )
                for p in alive:
                    p.terminate()
                tele.mode = "fleet-fallback"
                tele.fallbacks.append({
                    "from": "fleet", "to": "in-process", "reason": reason,
                })
                _emit(cfg.hub, "fallback-fleet", reason=reason)
                fallback = replace(
                    cfg, worker_id=f"{cfg.worker_id}-coord", lethal=False,
                    telemetry=tele,
                )
                fleet_worker(specs, fallback)
                break
            time.sleep(cfg.poll_s)
    finally:
        for p in children:
            if p.is_alive():
                p.terminate()
            p.join(timeout=5)
            if p.is_alive():  # pragma: no cover - stuck child
                p.kill()
                p.join(timeout=5)
    return merge_fleet(run_dir, specs, cfg=cfg, cache=cache)


def join_fleet(
    specs: Sequence["JobSpec"],
    cfg: FleetConfig,
    *,
    cache: "ResultCache | None" = None,
) -> list[dict[str, Any]]:
    """Run this process as one fleet worker, then merge.

    The cross-machine entry point (``repro sweep --join <run-id>``):
    every participating invocation points at the same shared journal
    directory and the same sweep arguments.  Each drains the queue
    until every job is resolved, then performs the (idempotent,
    deterministic) merge — so whichever worker you gave ``--out`` to
    writes the byte-identical document, and a late ``--join`` against a
    finished run is simply a merge with nothing left to claim.
    """
    tele = cfg.telemetry
    tele.mode = "fleet"
    tele.fleet_workers = 1
    tele.journal_run_id = cfg.run_id
    run_dir = fleet_dir(cfg.journal_root, cfg.run_id)
    completed = fleet_worker(specs, cfg)
    tele.resume_skips = len(specs) - completed
    return merge_fleet(run_dir, specs, cfg=cfg, cache=cache)
