"""Cross-process trace stitching: worker activity → one Chrome trace.

Two halves:

* **capture** — :class:`ActivitySink`, the per-worker subscriber fleet
  workers attach to their local :class:`~repro.prof.activity.ActivityHub`.
  It buffers the records of the job in flight and publishes them to the
  worker's NDJSON file under ``<run-id>.fleet/activity/`` only when the
  job *succeeds* — failed attempts never land, so the published
  activity of a job is a deterministic function of its spec alone, no
  matter how many retries, steals, or duplicate executions happened on
  the way.  Each line is keyed by the job's fingerprint, which no
  ``--resume`` with another job list can reassign.  (The flight
  recorder, not the sink, is where failed-attempt activity goes to be
  seen.)

* **stitch** — :func:`fleet_chrome_trace` reads the *finished* run
  directory (manifest + journals + activity, through the readers of
  :mod:`repro.resilience.fleet`) and lays every worker out
  as its own process lane in one Trace Event Format document: per-job
  wrapper spans carrying span identity, the device records inside
  them, flow arrows linking the run's root span to every job span.
  Span ids are derived here, from the run id and each job's position
  in the current manifest; no record stores them.
  The winner of each job is the same first-write-wins choice the
  payload merge makes, and every timestamp is derived from the
  simulated device clock plus fixed padding — so re-stitching the same
  run directory is **byte-identical**, which is what lets the trace
  property tests assert equality across ``--resume`` and repeated
  merges.

Every supervised run has a run directory, so a supervised ``--trace``
is always this stitched trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.durable import Appender, make_dirs
from repro.common.errors import ReproError
from repro.obs.trace import TraceContext
from repro.prof.activity import ActivityRecord
from repro.prof.ndjson import record_to_json
from repro.resilience.fleet import (
    read_manifest,
    read_worker_activity,
    scan_completed,
)

__all__ = [
    "ActivitySink",
    "read_worker_activity",
    "fleet_chrome_trace",
    "write_fleet_trace",
]

#: pid of the run lane (root span + flow sources)
RUN_PID = 1
#: worker lanes get ``WORKER_PID_BASE + index`` in sorted-worker order
WORKER_PID_BASE = 10

_S_TO_US = 1e6
#: padding between consecutive job spans in one worker lane
_JOB_GAP_US = 50.0
#: rendered width of a job that produced no timed records
_EMPTY_JOB_US = 10.0
#: spacing of driver-phase instants inside a job span
_INSTANT_TICK_US = 1.0


# ----------------------------------------------------------------------
# capture

class ActivitySink:
    """Publish the activity of *successful* jobs to a worker NDJSON file.

    Hub callback + commit protocol::

        sink = ActivitySink(path, worker="w0")
        hub.subscribe(sink)
        sink.begin(fingerprint)  # before each attempt: reset the buffer
        ...                      # records buffer during execution
        sink.commit()            # after journaling the success

    Lines are the standard NDJSON record projection prefixed with
    ``worker`` and ``job`` (the job's fingerprint) keys.  Each commit
    is one fsync'd
    :class:`~repro.common.durable.Appender` append, and reopening the
    file (a re-joined worker) heals a torn tail first.
    """

    def __init__(self, path: str | Path, *, worker: str) -> None:
        self.worker = worker
        self._out = Appender(path)
        self._job: str | None = None
        self._buf: list[ActivityRecord] = []

    # -- hub callback --------------------------------------------------
    def __call__(self, rec: ActivityRecord) -> None:
        if self._job is not None:
            self._buf.append(rec)

    # -- commit protocol -----------------------------------------------
    def begin(self, job: str) -> None:
        """Start buffering for the job with fingerprint ``job`` (drops
        any prior buffer)."""
        self._job = job
        self._buf = []

    def commit(self) -> None:
        """Publish the buffered records; clears the buffer."""
        if self._job is None:
            return
        self._out.append(*(
            {"worker": self.worker, "job": self._job, **record_to_json(rec)}
            for rec in self._buf
        ))
        self._job = None
        self._buf = []

    def abort(self) -> None:
        """Drop the buffer without publishing (failed attempt)."""
        self._job = None
        self._buf = []

    def close(self) -> None:
        self._out.close()


# ----------------------------------------------------------------------
# stitch helpers

def _meta(name: str, pid: int, tid: int, label: str) -> dict[str, Any]:
    return {
        "name": name, "ph": "M", "ts": 0, "pid": pid, "tid": tid,
        "args": {"name": label},
    }


def _trace_args(ctx: TraceContext) -> dict[str, Any]:
    """The span identity every stitched event of one span carries."""
    out = {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
    if ctx.parent_span_id:
        out["parent_span_id"] = ctx.parent_span_id
    return out


# ----------------------------------------------------------------------
# fleet stitch

def fleet_chrome_trace(run_dir: str | Path) -> dict[str, Any]:
    """One Chrome trace for a finished fleet run, one lane per worker.

    Deterministic in the run directory's contents: sorted workers, jobs
    in manifest (ordinal) order, device-clock timestamps offset by
    fixed padding, span ids derived from the run id and the manifest.
    A job's records are its winner's activity lines under its
    fingerprint; a fingerprint listed twice shows them in its first
    span.  Jobs whose winner published no activity (runs written before
    activity was keyed by fingerprint, torn activity files) still get
    their wrapper span, so the span tree is complete whenever the
    payload merge would succeed.
    """
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    run_id = manifest.get("run_id", run_dir.name.removesuffix(".fleet"))
    fingerprints: list[str] = manifest.get("jobs", [])
    spec_meta: list[dict[str, Any]] = manifest.get("specs") or [
        {} for _ in fingerprints
    ]
    # the merge's first-write-wins pick
    winners = {fp: w for fp, (w, _) in scan_completed(run_dir).items()}
    missing = [fp for fp in fingerprints if fp not in winners]
    if missing:
        raise ReproError(
            f"cannot stitch fleet run {run_id!r}: "
            f"{len(missing)}/{len(fingerprints)} job(s) never journaled"
        )
    activity = read_worker_activity(run_dir)
    by_worker_job: dict[tuple[str, Any], list[dict[str, Any]]] = {}
    for worker, lines in activity.items():
        for obj in lines:
            by_worker_job.setdefault((worker, obj.get("job")), []).append(obj)

    root = TraceContext.root(run_id)
    workers = sorted(set(winners.values()) | set(activity))
    pid_of = {w: WORKER_PID_BASE + i for i, w in enumerate(workers)}

    events: list[dict[str, Any]] = [
        _meta("process_name", RUN_PID, 0, "run"),
        _meta("thread_name", RUN_PID, 1, "run"),
    ]
    #: per-worker display state: jobs lane is tid 1, tracks come after
    tids: dict[str, dict[str, int]] = {}
    for w in workers:
        events.append(_meta("process_name", pid_of[w], 0, f"worker {w}"))
        events.append(_meta("thread_name", pid_of[w], 1, "jobs"))
        tids[w] = {}

    def track_tid(worker: str, track: str) -> int:
        lanes = tids[worker]
        if track not in lanes:
            lanes[track] = len(lanes) + 2
            events.append(
                _meta("thread_name", pid_of[worker], lanes[track], track)
            )
        return lanes[track]

    lane_clock = {w: 0.0 for w in workers}
    for ordinal, fp in enumerate(fingerprints):
        worker = winners[fp]
        pid = pid_of[worker]
        ctx = root.job(ordinal)
        recs = by_worker_job.pop((worker, fp), [])
        timed = [
            r for r in recs
            if r.get("start_s") is not None and r.get("end_s") is not None
            and r.get("kind") != "counter"
        ]
        untimed = [r for r in recs if r not in timed]
        base = lane_clock[worker]
        if timed:
            t0 = min(r["start_s"] for r in timed)
            span_us = (max(r["end_s"] for r in timed) - t0) * _S_TO_US
        else:
            t0 = 0.0
            span_us = 0.0
        span_us = max(
            span_us, _EMPTY_JOB_US, len(untimed) * _INSTANT_TICK_US
        )
        benchmark = (
            spec_meta[ordinal].get("benchmark", "?")
            if ordinal < len(spec_meta) else "?"
        )
        events.append({
            "name": f"job {ordinal}: {benchmark}",
            "cat": "span",
            "ph": "X",
            "ts": base,
            "dur": span_us,
            "pid": pid,
            "tid": 1,
            "args": {
                "job": ordinal,
                "benchmark": benchmark,
                "fingerprint": fp[:12],
                "worker": worker,
                **_trace_args(ctx),
            },
        })
        # flow arrow: root span -> this job span
        events.append({
            "name": "span", "cat": "trace", "ph": "s",
            "id": ordinal + 1, "ts": base, "pid": RUN_PID, "tid": 1,
        })
        events.append({
            "name": "span", "cat": "trace", "ph": "f", "bp": "e",
            "id": ordinal + 1, "ts": base, "pid": pid, "tid": 1,
        })
        for rec in timed:
            events.append({
                "name": rec.get("name", "?"),
                "cat": rec.get("kind", "kernel"),
                "ph": "X",
                "ts": base + (rec["start_s"] - t0) * _S_TO_US,
                "dur": max(0.0, (rec["end_s"] - rec["start_s"]) * _S_TO_US),
                "pid": pid,
                "tid": track_tid(worker, rec.get("track") or "device"),
                "args": {**(rec.get("args") or {}), **_trace_args(ctx)},
            })
        for i, rec in enumerate(untimed):
            events.append({
                "name": rec.get("name", "?"),
                "cat": rec.get("kind", "launch"),
                "ph": "i",
                "s": "t",
                "ts": base + i * _INSTANT_TICK_US,
                "pid": pid,
                "tid": track_tid(worker, "driver"),
                "args": {**(rec.get("args") or {}), **_trace_args(ctx)},
            })
        lane_clock[worker] = base + span_us + _JOB_GAP_US
    total_us = max(lane_clock.values(), default=_JOB_GAP_US)
    events.append({
        "name": f"run {run_id}",
        "cat": "span",
        "ph": "X",
        "ts": 0.0,
        "dur": total_us,
        "pid": RUN_PID,
        "tid": 1,
        "args": {
            "run_id": run_id,
            "command": manifest.get("command", ""),
            "jobs": len(fingerprints),
            "workers": len(workers),
            **_trace_args(root),
        },
    })
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "run_id": run_id},
    }


def write_fleet_trace(run_dir: str | Path, path: str | Path) -> Path:
    path = Path(path)
    make_dirs(path.parent)
    path.write_text(json.dumps(fleet_chrome_trace(run_dir)))
    return path
