"""The ``repro top`` screen over a run directory.

:func:`~repro.resilience.fleet.fleet_status` reads the run directory —
manifest, per-worker logs, lease files, quarantine
markers, flight-recorder dumps — into one read-only snapshot: overall
progress + ETA, per-worker health and counters, and the leases
currently held.  It is the same snapshot ``repro journal ls/show`` and
``--metrics`` read, so every tool agrees on a run's progress.
:func:`render_fleet_status` draws it.  **Nothing is ever written**:
watching a run cannot perturb it, so a monitored fleet's merged result
stays byte-identical to an unmonitored one (asserted by the CLI tests).

Worker health is judged from event recency against the lease TTL:

==========  ========================================================
``done``    the worker logged ``worker-exit``
``live``    last event younger than the TTL
``stale``   no event for longer than the TTL — crashed or wedged
            (its leases are what peers will steal)
==========  ========================================================
"""

from __future__ import annotations

import time
from typing import Any

__all__ = ["render_fleet_status"]


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
