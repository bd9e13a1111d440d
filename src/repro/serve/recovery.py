"""Startup recovery: rebuild the queue from disk after any exit.

A restarting daemon — clean restart or post-``kill -9`` — replays its
data dir before accepting traffic (``/readyz`` stays not-ready until
this completes):

1. **state files first** — ``requests/<id>.json`` is the authoritative
   per-request record; every parseable file becomes an in-memory
   entry.
2. **intake journal as backstop** — an intake line whose state file is
   missing or torn (the crash hit between the fsync'd accept and the
   state write, or mid-replace) is rebuilt as a fresh ``queued``
   entry: accepted means persisted, so the 202 the client got is
   honoured.
3. **requeue the incomplete** — entries found ``running`` were
   in-flight when the previous incarnation died (one daemon owns a
   data dir, so nothing else is running them).  They flip back to
   ``queued``, and re-execution resumes from the per-request run
   directory's checkpoints, so finished sweep points are replayed, not
   recomputed.
4. **completed stay completed** — ``done`` entries keep pointing at
   their content-addressed result files, which are served
   byte-identically after restart.

Returns a :class:`RecoverySummary` the server logs and exports as
``repro_serve_recovered_requests``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.serve.queue import DurableQueue, QueueEntry
from repro.serve.request import validate_request

__all__ = ["RecoverySummary", "recover"]


@dataclass
class RecoverySummary:
    """What one recovery pass found and did."""

    requests: int = 0            #: entries rebuilt in memory
    requeued: int = 0            #: queued entries put back on the queue
    releases: int = 0            #: running entries requeued at startup
    completed: int = 0           #: terminal entries indexed
    rebuilt_from_intake: int = 0  #: state file lost; intake line used

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "requeued": self.requeued,
            "releases": self.releases,
            "completed": self.completed,
            "rebuilt_from_intake": self.rebuilt_from_intake,
        }


def recover(queue: DurableQueue) -> RecoverySummary:
    """Rebuild ``queue``'s in-memory state from its data directory.

    Must run before the queue takes new submissions; operates on the
    queue's internals (same package) under its lock.
    """
    summary = RecoverySummary()
    entries: dict[str, QueueEntry] = {}

    state_dir = queue.data_dir / "requests"
    for path in sorted(state_dir.glob("*.json")):
        entry = queue._load_state(path)
        if entry is None:
            continue
        entries[entry.id] = entry

    # backstop: every fsync'd intake line must surface as an entry even
    # if its state-file write never landed
    for line in queue._read_intake(queue._intake_path):
        rid = line.get("id")
        if rid in entries:
            continue
        try:
            request = validate_request(
                line.get("request"), client=line.get("client") or None
            )
            request.fingerprint = line["fingerprint"]
        except Exception:  # noqa: BLE001 - unparseable backstop line
            continue
        entry = QueueEntry(rid, int(line.get("seq", 0)), request)
        entry.submitted_at = float(line.get("submitted_at", 0.0))
        entries[rid] = entry
        summary.rebuilt_from_intake += 1

    with queue._lock:
        for entry in sorted(entries.values(), key=lambda e: e.seq):
            summary.requests += 1
            if entry.state == "running":
                # the previous incarnation died running it: put the
                # request back in line — its run directory replays
                # whatever finished before the crash
                entry.state = "queued"
                entry.started_at = None
                queue._persist(entry)
                summary.releases += 1
            if entry.state == "queued":
                queue._pending.append(entry.id)
                summary.requeued += 1
            elif entry.terminal:
                summary.completed += 1
            queue._index(entry)
            queue._seq = max(queue._seq, entry.seq + 1)
        queue._ready.notify_all()
    return summary
