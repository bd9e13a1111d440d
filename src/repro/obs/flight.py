"""Flight recorder: a bounded ring of recent activity, dumped on death.

Modeled on an aircraft flight data recorder: every worker keeps the
last ``capacity`` :class:`~repro.prof.activity.ActivityRecord` s it saw
in a fixed-size ring (a deque — O(1) per record, bounded memory no
matter how long the run), and when the worker crashes, a job is
quarantined, or the process exits nonzero, the ring is **dumped
atomically** (:func:`~repro.common.durable.atomic_write`; see the
"Durability" section of ``docs/resilience.md``) as a
``repro-flight/1`` JSON document.  The dump answers the question
post-mortems always start with: *what was this worker doing in its last
moments?*

Dump locations
--------------

Every worker of a supervised run dumps into its run directory,
``<run-id>.fleet/flightrec/<worker>-<reason>.json``, which ``repro
journal gc`` removes with the run.

Dumps are listed by ``repro journal show <run-id>`` and counted in the
metrics exposition (``repro_flight_dumps_total``).

Document format (``repro-flight/1``)::

    {
      "format": "repro-flight/1",
      "worker": "w0",
      "reason": "quarantine",
      "run_id": "…",
      "capacity": 64,
      "dropped": 123,          // records that aged out of the ring
      "records": [ {"job": <fingerprint>, <NDJSON projection>}, … ]
    }

Each record names the job that was in flight when it was recorded
(:attr:`FlightRecorder.job`, the job's fingerprint; ``null`` outside a
job).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any

from repro.common.durable import atomic_write
from repro.prof.activity import ActivityRecord
from repro.prof.ndjson import record_to_json

__all__ = [
    "FlightRecorder",
    "FLIGHT_FORMAT",
    "DEFAULT_CAPACITY",
    "read_flight_dump",
    "list_flight_dumps",
]

FLIGHT_FORMAT = "repro-flight/1"

#: ring size — enough to cover a job's full activity at the default
#: sweep sizes while keeping a dump comfortably under a few hundred KB
DEFAULT_CAPACITY = 64


class FlightRecorder:
    """A hub subscriber holding the last ``capacity`` records.

    Usable directly as a hub callback::

        rec = FlightRecorder(worker="w0", run_id=run_id)
        hub.subscribe(rec)                  # all kinds
        rec.job = fingerprint               # at each claim
        ...
        rec.dump(dump_dir, reason="crash")  # on the way down
    """

    def __init__(
        self,
        *,
        worker: str = "",
        run_id: str | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.worker = worker
        self.run_id = run_id
        self.capacity = capacity
        self.dropped = 0
        #: fingerprint of the job in flight, kept with each record
        self.job: str | None = None
        self._ring: deque[tuple[str | None, ActivityRecord]] = deque(
            maxlen=capacity
        )

    # ------------------------------------------------------------------
    def __call__(self, rec: ActivityRecord) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append((self.job, rec))

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def records(self) -> list[ActivityRecord]:
        return [rec for _, rec in self._ring]

    # ------------------------------------------------------------------
    def as_document(self, reason: str) -> dict[str, Any]:
        return {
            "format": FLIGHT_FORMAT,
            "worker": self.worker,
            "reason": reason,
            "run_id": self.run_id,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "records": [
                {"job": job, **record_to_json(rec)} for job, rec in self._ring
            ],
        }

    def dump(self, dump_dir: str | Path, *, reason: str) -> Path:
        """Atomically write the ring as ``<worker>-<reason>.json``.

        A dump racing the process's death is either complete or absent —
        never a torn JSON document.
        """
        final = Path(dump_dir) / f"{self.worker or 'worker'}-{reason}.json"
        atomic_write(final, json.dumps(self.as_document(reason)))
        return final


# ----------------------------------------------------------------------
def read_flight_dump(path: str | Path) -> dict[str, Any]:
    """Load and validate one dump; raises ``ValueError`` when malformed."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != FLIGHT_FORMAT:
        raise ValueError(
            f"{path}: not a {FLIGHT_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else type(doc).__name__!r})"
        )
    return doc


def list_flight_dumps(dump_dir: str | Path) -> list[Path]:
    """The dumps under one directory, sorted by name (tmps excluded)."""
    dump_dir = Path(dump_dir)
    if not dump_dir.is_dir():
        return []
    return sorted(
        p for p in dump_dir.iterdir()
        if p.suffix == ".json" and not p.name.startswith(".")
    )
