"""Cross-process trace stitching: worker activity → one Chrome trace.

Two halves:

* **capture** — :class:`ActivitySink`, the per-worker subscriber fleet
  workers attach to their local :class:`~repro.prof.activity.ActivityHub`.
  It buffers the records of the attempt in flight, and the worker puts
  them on the job's completion line in its log only when the job
  *succeeds* — failed attempts never land, so the journaled activity
  of a job is a deterministic function of its spec alone, no matter
  how many retries, steals, or duplicate executions happened on the
  way.  The line is keyed by the job's fingerprint, which no
  ``--resume`` with another job list can reassign, and is one append,
  so a job is never journaled without its activity.  (The flight
  recorder, not the sink, is where failed-attempt activity goes to be
  seen.)

* **stitch** — :func:`fleet_chrome_trace` reads the *finished* run
  directory (the manifest and the worker logs, through the readers of
  :mod:`repro.resilience.fleet`) and lays every worker that claimed or
  won a job out as its own process lane in one Trace Event Format
  document: per-job wrapper spans carrying span identity, the device
  records inside them, flow arrows linking the run's root span to
  every job span.
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

from repro.common.durable import make_dirs
from repro.common.errors import ReproError
from repro.obs.trace import TraceContext
from repro.prof.activity import ActivityRecord
from repro.prof.ndjson import record_to_json
from repro.resilience.fleet import completions, read_logs, read_manifest

__all__ = [
    "ActivitySink",
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
    """The activity records of a worker's attempt in flight::

        sink = ActivitySink()
        hub.subscribe(sink)
        sink.begin()             # before each attempt: drop the buffer
        ...                      # records buffer during execution
        journal.record(fp, payload, activity=sink.take())
    """

    def __init__(self) -> None:
        self._buf: list[ActivityRecord] = []

    def __call__(self, rec: ActivityRecord) -> None:
        self._buf.append(rec)

    def begin(self) -> None:
        """Start a new attempt (drops any prior buffer)."""
        self._buf = []

    def take(self) -> list[dict[str, Any]]:
        """The buffered records, projected; clears the buffer."""
        out = [record_to_json(rec) for rec in self._buf]
        self._buf = []
        return out


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
    A job's records are the activity on its winning completion line; a
    fingerprint listed twice shows them in its first span.  A job whose
    completion carries no activity (a cache hit) still gets its wrapper
    span, so the span tree is complete whenever the payload merge would
    succeed.
    """
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    run_id = manifest.get("run_id", run_dir.name.removesuffix(".fleet"))
    fingerprints: list[str] = manifest.get("jobs", [])
    spec_meta: list[dict[str, Any]] = manifest.get("specs") or [
        {} for _ in fingerprints
    ]
    logs = read_logs(run_dir)
    # the merge's first-write-wins pick
    winners = {fp: lines[0] for fp, lines in completions(logs).items()}
    missing = [fp for fp in fingerprints if fp not in winners]
    if missing:
        raise ReproError(
            f"cannot stitch fleet run {run_id!r}: "
            f"{len(missing)}/{len(fingerprints)} job(s) never journaled"
        )
    claimed = {
        w for w, log in logs.items()
        if any(ev["event"] in ("lease-acquire", "lease-steal")
               for ev in log.events)
    }

    root = TraceContext.root(run_id)
    workers = sorted({w for w, _ in winners.values()} | claimed)
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
    shown: set[str] = set()
    for ordinal, fp in enumerate(fingerprints):
        worker, line = winners[fp]
        pid = pid_of[worker]
        ctx = root.job(ordinal)
        recs = [] if fp in shown else line.get("activity") or []
        shown.add(fp)
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
