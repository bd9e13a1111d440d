"""Resilient scheduling: supervision, checkpoint/resume, fleet, chaos.

The production-hardening layer over :mod:`repro.sched`: one
multi-process engine (:mod:`~repro.resilience.fleet`, over the atomic
leases of :mod:`~repro.resilience.lease`) that runs every supervised
job list, locally or across machines sharing a directory, and reads
its run directories back for every tool; the per-job supervision
ladder and its config (:mod:`~repro.resilience.supervisor`); an
append-only NDJSON run journal for checkpoint/resume
(:mod:`~repro.resilience.journal`); and
the ``--chaos`` grammar that drives deterministic scheduler- and
fleet-layer fault injection (:mod:`~repro.resilience.chaos`).  See
``docs/resilience.md`` and ``docs/fleet.md``.
"""

from repro.resilience.chaos import parse_chaos
from repro.resilience.fleet import (
    FLEET_SCHEMA,
    FleetMergeError,
    ensure_manifest,
    fleet_dir,
    fleet_status,
    fleet_worker,
    gc_runs,
    join_fleet,
    list_runs,
    merge_fleet,
    run_jobs,
)
from repro.resilience.journal import (
    DEFAULT_JOURNAL_DIR,
    JOURNAL_SCHEMA,
    RunJournal,
    job_fingerprint,
    new_run_id,
)
from repro.resilience.lease import LEASE_SCHEMA, Lease, LeaseDir
from repro.resilience.supervisor import (
    JobTimeout,
    QuarantineError,
    ResilienceConfig,
    SchedTelemetry,
    WorkerCrash,
    wall_clock_limit,
)

__all__ = [
    "DEFAULT_JOURNAL_DIR",
    "FLEET_SCHEMA",
    "JOURNAL_SCHEMA",
    "LEASE_SCHEMA",
    "FleetMergeError",
    "JobTimeout",
    "Lease",
    "LeaseDir",
    "QuarantineError",
    "ResilienceConfig",
    "RunJournal",
    "SchedTelemetry",
    "WorkerCrash",
    "ensure_manifest",
    "fleet_dir",
    "fleet_status",
    "fleet_worker",
    "gc_runs",
    "job_fingerprint",
    "join_fleet",
    "list_runs",
    "merge_fleet",
    "new_run_id",
    "parse_chaos",
    "run_jobs",
    "wall_clock_limit",
]
