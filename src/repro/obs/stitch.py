"""Cross-process trace stitching: worker activity → one Chrome trace.

Two halves:

* **capture** — :class:`ActivitySink`, the per-worker subscriber fleet
  workers attach to their local :class:`~repro.prof.activity.ActivityHub`.
  It buffers the records of the job in flight and publishes them to the
  worker's NDJSON file under ``<run-id>.fleet/activity/`` only when the
  job *succeeds* — failed attempts never land, so the published
  activity of a job is a deterministic function of its spec alone, no
  matter how many retries, steals, or duplicate executions happened on
  the way.  (The flight recorder, not the sink, is where failed-attempt
  activity goes to be seen.)

* **stitch** — :func:`fleet_chrome_trace` reads the *finished* run
  directory (manifest + journals + activity) and lays every worker out
  as its own process lane in one Trace Event Format document: per-job
  wrapper spans carrying span identity, the device records inside
  them, flow arrows linking the run's root span to every job span.
  The winner of each job is the same first-write-wins choice the
  payload merge makes, and every timestamp is derived from the
  simulated device clock plus fixed padding — so re-stitching the same
  run directory is **byte-identical**, which is what lets the trace
  property tests assert equality across ``--resume`` and repeated
  merges.

:func:`journal_chrome_trace` is the pool-run analog: it has no device
activity to stitch (pool workers report payloads, not records), so it
renders one synthetic span per journaled job from the journal's stable
fields only (benchmark/kind/backend/ordinal + span identity —
*not* attempt counts), making an interrupted-then-resumed run's trace
byte-identical to an uninterrupted one under the same run id.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.durable import Appender, read_records
from repro.common.errors import ReproError
from repro.obs.trace import TraceContext
from repro.prof.activity import ActivityRecord
from repro.prof.ndjson import record_to_json

__all__ = [
    "ActivitySink",
    "read_worker_activity",
    "read_journal_entries",
    "fleet_chrome_trace",
    "write_fleet_trace",
    "journal_chrome_trace",
    "write_journal_trace",
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
        sink.begin(ordinal)      # before each attempt: reset the buffer
        ...                      # records buffer during execution
        sink.commit()            # after journaling the success

    Lines are the standard NDJSON record projection prefixed with
    ``worker`` and ``job`` keys.  Each commit is one fsync'd
    :class:`~repro.common.durable.Appender` append, and reopening the
    file (a re-joined worker) heals a torn tail first.
    """

    def __init__(self, path: str | Path, *, worker: str) -> None:
        self.worker = worker
        self._out = Appender(path)
        self._job: int | None = None
        self._buf: list[ActivityRecord] = []

    # -- hub callback --------------------------------------------------
    def __call__(self, rec: ActivityRecord) -> None:
        if self._job is not None:
            self._buf.append(rec)

    # -- commit protocol -----------------------------------------------
    def begin(self, ordinal: int) -> None:
        """Start buffering for job ``ordinal`` (drops any prior buffer)."""
        self._job = ordinal
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


def read_worker_activity(run_dir: str | Path) -> dict[str, list[dict[str, Any]]]:
    """worker -> its published activity lines, in append order.

    Tolerates a torn tail (a worker killed mid-publish): unparsable
    lines are skipped (:func:`~repro.common.durable.read_records`).
    """
    adir = Path(run_dir) / "activity"
    return {
        path.stem: read_records(path)
        for path in sorted(adir.glob("*.ndjson"))
    }


# ----------------------------------------------------------------------
# stitch helpers

def _meta(name: str, pid: int, tid: int, label: str) -> dict[str, Any]:
    return {
        "name": name, "ph": "M", "ts": 0, "pid": pid, "tid": tid,
        "args": {"name": label},
    }


def _trace_args(obj: dict[str, Any], ctx: TraceContext) -> dict[str, Any]:
    """Span identity for one stitched event: the record's own ids when
    it was stamped, the job span's otherwise."""
    if obj.get("trace_id"):
        out = {"trace_id": obj["trace_id"], "span_id": obj["span_id"]}
        if obj.get("parent_span_id"):
            out["parent_span_id"] = obj["parent_span_id"]
        return out
    out = {"trace_id": ctx.trace_id, "span_id": ctx.span_id}
    if ctx.parent_span_id:
        out["parent_span_id"] = ctx.parent_span_id
    return out


def _load_manifest(run_dir: Path) -> dict[str, Any]:
    path = run_dir / "manifest.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(
            f"cannot stitch fleet run: manifest {path} unreadable: {exc}"
        ) from None
    if not isinstance(doc.get("jobs"), list):
        raise ReproError(f"fleet manifest {path} has no job list")
    return doc


def _scan_winners(run_dir: Path) -> dict[str, str]:
    """fingerprint -> winning worker, the merge's first-write-wins pick."""
    from repro.resilience.journal import RunJournal

    winners: dict[str, str] = {}
    for path in sorted((run_dir / "journals").glob("*.ndjson")):
        _, completed = RunJournal._load(path)
        for fp in completed:
            winners.setdefault(fp, path.stem)
    return winners


# ----------------------------------------------------------------------
# fleet stitch

def fleet_chrome_trace(run_dir: str | Path) -> dict[str, Any]:
    """One Chrome trace for a finished fleet run, one lane per worker.

    Deterministic in the run directory's contents: sorted workers, jobs
    in manifest (ordinal) order, device-clock timestamps offset by
    fixed padding, span ids derived from the run id.  Jobs whose winner
    published no activity (pre-observability runs, torn activity
    files) still get their wrapper span, so the span tree is complete
    whenever the payload merge would succeed.
    """
    run_dir = Path(run_dir)
    manifest = _load_manifest(run_dir)
    run_id = manifest.get("run_id", run_dir.name.removesuffix(".fleet"))
    fingerprints: list[str] = manifest["jobs"]
    spec_meta: list[dict[str, Any]] = manifest.get("specs") or [
        {} for _ in fingerprints
    ]
    winners = _scan_winners(run_dir)
    missing = [fp for fp in fingerprints if fp not in winners]
    if missing:
        raise ReproError(
            f"cannot stitch fleet run {run_id!r}: "
            f"{len(missing)}/{len(fingerprints)} job(s) never journaled"
        )
    activity = read_worker_activity(run_dir)
    by_worker_job: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for worker, lines in activity.items():
        for obj in lines:
            try:
                ordinal = int(obj.get("job"))
            except (TypeError, ValueError):
                continue
            by_worker_job.setdefault((worker, ordinal), []).append(obj)

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
        recs = by_worker_job.get((worker, ordinal), [])
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
                **_trace_args({}, ctx),
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
                "args": {**(rec.get("args") or {}), **_trace_args(rec, ctx)},
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
                "args": {**(rec.get("args") or {}), **_trace_args(rec, ctx)},
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
            **_trace_args({}, root),
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fleet_chrome_trace(run_dir)))
    return path


# ----------------------------------------------------------------------
# pool-journal trace

#: synthetic geometry of pool-journal spans (no device clock to use)
_JOURNAL_SLOT_US = 1000.0
_JOURNAL_SPAN_US = 800.0


def read_journal_entries(
    journal_path: str | Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """``(header, entries)`` of one journal file, keeping ``meta``.

    Unlike :meth:`RunJournal._load` — which keeps only the payloads the
    scheduler replays — this preserves each entry's full record (``job``
    fingerprint, ``payload``, ``meta`` with benchmark/ordinal/span
    identity), which is what ``repro journal show`` and the trace
    stitcher render.  The header is the first record carrying
    ``schema``; duplicate fingerprints keep the first record (the
    merge's first-write-wins pick); torn lines are skipped.
    """
    journal_path = Path(journal_path)
    if not journal_path.exists():
        raise ReproError(f"no journal at {journal_path}")
    header: dict[str, Any] = {}
    entries: list[dict[str, Any]] = []
    seen: set[str] = set()
    for obj in read_records(journal_path):
        if "schema" in obj and not header:
            header = obj
        elif "job" in obj and obj["job"] not in seen:
            seen.add(obj["job"])
            entries.append(obj)
    return header, entries


def journal_chrome_trace(journal_path: str | Path) -> dict[str, Any]:
    """A synthetic span tree from one pool run's journal.

    Spans are built from *stable* journal fields only — benchmark,
    kind, backend, job ordinal, span identity — and jobs are laid out
    by ordinal, so the trace of ``run → interrupt → --resume`` is
    byte-identical to the trace of the same run finishing in one go.
    """
    journal_path = Path(journal_path)
    header, entries = read_journal_entries(journal_path)
    run_id = header.get("run_id", journal_path.stem)
    root = TraceContext.root(run_id)

    def ordinal_of(idx: int, entry: dict[str, Any]) -> int:
        meta = entry.get("meta") or {}
        return meta["job"] if isinstance(meta.get("job"), int) else idx

    ordered = sorted(
        (
            (ordinal_of(i, e), e["job"], e.get("meta") or {})
            for i, e in enumerate(entries)
        ),
        key=lambda t: (t[0], t[1]),
    )
    events: list[dict[str, Any]] = [
        _meta("process_name", RUN_PID, 0, "run"),
        _meta("thread_name", RUN_PID, 1, "run"),
        _meta("thread_name", RUN_PID, 2, "jobs"),
    ]
    for ordinal, fp, meta in ordered:
        ctx = TraceContext.from_dict(meta) or root.job(ordinal)
        label = meta.get("benchmark", "?")
        if meta.get("kind"):
            label = f"{label} [{meta['kind']}]"
        args: dict[str, Any] = {"job": ordinal, "fingerprint": fp[:12]}
        for key in ("benchmark", "kind", "backend"):
            if meta.get(key):
                args[key] = meta[key]
        args.update(_trace_args({}, ctx))
        events.append({
            "name": label,
            "cat": "span",
            "ph": "X",
            "ts": ordinal * _JOURNAL_SLOT_US,
            "dur": _JOURNAL_SPAN_US,
            "pid": RUN_PID,
            "tid": 2,
            "args": args,
        })
        events.append({
            "name": "span", "cat": "trace", "ph": "s",
            "id": ordinal + 1, "ts": ordinal * _JOURNAL_SLOT_US,
            "pid": RUN_PID, "tid": 1,
        })
        events.append({
            "name": "span", "cat": "trace", "ph": "f", "bp": "e",
            "id": ordinal + 1, "ts": ordinal * _JOURNAL_SLOT_US,
            "pid": RUN_PID, "tid": 2,
        })
    total = (
        (max(o for o, _, _ in ordered) + 1) * _JOURNAL_SLOT_US
        if ordered else _JOURNAL_SLOT_US
    )
    events.append({
        "name": f"run {run_id}",
        "cat": "span",
        "ph": "X",
        "ts": 0.0,
        "dur": total,
        "pid": RUN_PID,
        "tid": 1,
        "args": {
            "run_id": run_id,
            "command": header.get("command", ""),
            "jobs": len(ordered),
            **_trace_args({}, root),
        },
    })
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "run_id": run_id},
    }


def write_journal_trace(journal_path: str | Path, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(journal_chrome_trace(journal_path)))
    return path
