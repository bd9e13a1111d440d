"""Read-only live view over a running fleet (``repro top``).

``fleet_status`` scans the shared coordination directory — manifest,
per-worker journals, event logs, lease files, quarantine markers,
flight-recorder dumps — and reduces it to one status snapshot: overall
progress + ETA, per-worker health and counters, and the leases
currently held.  Every input is read with the same torn-tolerant
parsers the merge uses, and **nothing is ever written**: watching a
run cannot perturb it, so a monitored fleet's merged result stays
byte-identical to an unmonitored one (asserted by the CLI tests).

Worker health is judged from event recency against the lease TTL:

==========  ========================================================
``done``    the worker logged ``worker-exit``
``live``    last event younger than the TTL
``stale``   no event for longer than the TTL — crashed or wedged
            (its leases are what peers will steal)
==========  ========================================================
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro.common.durable import read_records
from repro.common.errors import ReproError

__all__ = ["fleet_status", "render_fleet_status"]

#: event names folded into per-worker counters
_COUNTED = {
    "lease-acquire": "leases",
    "lease-steal": "stolen",
    "heartbeat": "heartbeats",
    "retry": "retries",
    "job-error": "errors",
    "quarantine": "quarantined",
}


def _worker_row(worker: str) -> dict[str, Any]:
    return {
        "worker": worker,
        "completed": 0,
        "leases": 0,
        "stolen": 0,
        "heartbeats": 0,
        "retries": 0,
        "errors": 0,
        "quarantined": 0,
        "last_seen": None,       #: wall-clock of the newest event
        "state": "live",
    }


def fleet_status(
    run_dir: str | Path,
    *,
    ttl_s: float = 5.0,
    now: float | None = None,
) -> dict[str, Any]:
    """One read-only snapshot of a fleet run's shared directory."""
    from repro.resilience.journal import RunJournal
    from repro.resilience.lease import LeaseDir

    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ReproError(f"no fleet run directory at {run_dir}")
    now = time.time() if now is None else now
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError):
        manifest = {}
    fingerprints: list[str] = manifest.get("jobs") or []

    workers: dict[str, dict[str, Any]] = {}
    completed_fps: set[str] = set()
    jdir = run_dir / "journals"
    if jdir.is_dir():
        for path in sorted(jdir.glob("*.ndjson")):
            _, done = RunJournal._load(path)
            row = workers.setdefault(path.stem, _worker_row(path.stem))
            row["completed"] = len(done)
            completed_fps.update(done)

    first_event_t: float | None = None
    edir = run_dir / "events"
    if edir.is_dir():
        for path in sorted(edir.glob("*.ndjson")):
            row = workers.setdefault(path.stem, _worker_row(path.stem))
            for ev in read_records(path):
                name = ev.get("event", "")
                if name in _COUNTED:
                    row[_COUNTED[name]] += 1
                t = ev.get("t")
                if isinstance(t, (int, float)):
                    row["last_seen"] = (
                        t if row["last_seen"] is None
                        else max(row["last_seen"], t)
                    )
                    first_event_t = (
                        t if first_event_t is None else min(first_event_t, t)
                    )
                if name == "worker-exit":
                    row["state"] = "done"
    for row in workers.values():
        if row["state"] == "done":
            continue
        seen = row["last_seen"]
        row["state"] = (
            "stale" if seen is not None and now - seen > ttl_s else "live"
        )

    leases: list[dict[str, Any]] = []
    ldir = run_dir / "leases"
    if ldir.is_dir():
        lease_dir = LeaseDir(ldir, ttl_s=ttl_s, now=lambda: now)
        for path in sorted(ldir.glob("*.lease")):
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
            try:
                ordinal = fingerprints.index(job)
            except ValueError:
                ordinal = None
            leases.append({
                "job": job[:12],
                "ordinal": ordinal,
                "owner": lease.owner,
                "epoch": lease.epoch,
                "age_s": max(0.0, now - lease.heartbeat_at),
                "stale": lease_dir.is_stale(lease),
            })

    quarantined = len(list((run_dir / "quarantine").glob("*.json"))) \
        if (run_dir / "quarantine").is_dir() else 0
    flight_dumps = len([
        p for p in (run_dir / "flightrec").glob("*.json")
        if not p.name.startswith(".")
    ]) if (run_dir / "flightrec").is_dir() else 0

    jobs_total = len(fingerprints)
    jobs_completed = len(
        completed_fps & set(fingerprints) if fingerprints else completed_fps
    )
    remaining = max(0, jobs_total - jobs_completed - quarantined)
    eta_s: float | None = None
    if remaining == 0 and jobs_total:
        eta_s = 0.0
    elif jobs_completed and first_event_t is not None:
        elapsed = max(1e-6, now - first_event_t)
        rate = jobs_completed / elapsed
        if rate > 0:
            eta_s = remaining / rate
    return {
        "run_id": manifest.get(
            "run_id", run_dir.name.removesuffix(".fleet")
        ),
        "command": manifest.get("command", ""),
        "jobs_total": jobs_total,
        "jobs_completed": jobs_completed,
        "jobs_remaining": remaining,
        "quarantined": quarantined,
        "flight_dumps": flight_dumps,
        "eta_s": eta_s,
        "leases_acquired": sum(w["leases"] for w in workers.values()),
        "leases_stolen": sum(w["stolen"] for w in workers.values()),
        "heartbeats": sum(w["heartbeats"] for w in workers.values()),
        "active_leases": leases,
        "workers": [workers[w] for w in sorted(workers)],
    }


# ----------------------------------------------------------------------
def _fmt_eta(eta_s: float | None) -> str:
    if eta_s is None:
        return "?"
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.1f}s"


def render_fleet_status(status: dict[str, Any]) -> str:
    """The ``repro top`` screen: header, worker table, lease table."""
    lines: list[str] = []
    total = status["jobs_total"]
    done = status["jobs_completed"]
    pct = (100.0 * done / total) if total else 0.0
    lines.append(
        f"fleet {status['run_id']}"
        + (f"  ({status['command']})" if status["command"] else "")
    )
    bar_w = 30
    filled = int(bar_w * pct / 100.0)
    lines.append(
        f"  [{'#' * filled}{'.' * (bar_w - filled)}] "
        f"{done}/{total} jobs ({pct:.0f}%)  eta {_fmt_eta(status['eta_s'])}"
    )
    lines.append(
        f"  leases: {status['leases_acquired']} acquired, "
        f"{status['leases_stolen']} stolen, "
        f"{status['heartbeats']} heartbeats"
        + (f"  quarantined: {status['quarantined']}"
           if status["quarantined"] else "")
        + (f"  flight-dumps: {status['flight_dumps']}"
           if status["flight_dumps"] else "")
    )
    lines.append("")
    lines.append(
        f"  {'WORKER':<24} {'STATE':<6} {'DONE':>5} {'LEASE':>6} "
        f"{'STEAL':>6} {'HB':>6} {'RETRY':>6} {'ERR':>4}  LAST SEEN"
    )
    for w in status["workers"]:
        seen = w["last_seen"]
        ago = f"{max(0.0, time.time() - seen):.1f}s ago" if seen else "-"
        lines.append(
            f"  {w['worker']:<24} {w['state']:<6} {w['completed']:>5} "
            f"{w['leases']:>6} {w['stolen']:>6} {w['heartbeats']:>6} "
            f"{w['retries']:>6} {w['errors']:>4}  {ago}"
        )
    if status["active_leases"]:
        lines.append("")
        lines.append(f"  {'LEASE':<14} {'JOB':>4} {'OWNER':<24} "
                     f"{'EPOCH':>5} {'AGE':>7}  STATE")
        for l in status["active_leases"]:
            age = f"{l['age_s']:.1f}s" if l["age_s"] is not None else "-"
            ordinal = l.get("ordinal")
            lines.append(
                f"  {l['job']:<14} {ordinal if ordinal is not None else '?':>4} "
                f"{l['owner']:<24} {l['epoch'] if l['epoch'] is not None else '?':>5} "
                f"{age:>7}  {'STALE' if l['stale'] else 'held'}"
            )
    return "\n".join(lines)
