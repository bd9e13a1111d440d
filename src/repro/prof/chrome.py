"""Chrome trace-event exporter.

Serializes collected :class:`~repro.prof.activity.ActivityRecord` s into
the Trace Event Format JSON that ``chrome://tracing`` and Perfetto load
— the simulator's nvvp/Nsight-Systems timeline, but in a standard
container.  Layout:

* **pid 1, "device"** — timed records.  Each activity ``track`` (stream
  name, copy engine) becomes one ``tid`` with a ``thread_name``
  metadata event, so streams render as separate rows; records become
  complete (``ph: "X"``) duration events.
* **pid 1, counters** — ``counter`` records expand into one ``ph: "C"``
  event per metric so occupancy/efficiency series plot under the
  timeline.
* **pid 2, "driver"** — driver-phase records (``launch``, ``fault``,
  ``sanitizer``) have no device timestamp; they render as instant
  (``ph: "i"``) events ordered by their emission sequence number.

Timestamps are microseconds (the format's unit); the simulated device
clock starts at 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.durable import make_dirs
from repro.prof.activity import ActivityRecord

__all__ = ["chrome_trace", "write_chrome_trace", "DEVICE_PID", "DRIVER_PID"]

DEVICE_PID = 1
DRIVER_PID = 2

#: driver-phase records are spaced this many microseconds apart so the
#: instant events stay readable when zoomed out
_DRIVER_TICK_US = 1.0

_S_TO_US = 1e6


def _jsonable(args: dict) -> dict:
    """Round-trip the args payload into JSON-safe plain values."""
    out = {}
    for k, v in args.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        elif isinstance(v, (list, tuple)):
            out[k] = [x if isinstance(x, (str, int, float, bool)) else str(x) for x in v]
        else:
            out[k] = str(v)
    return out


def chrome_trace(
    records: Sequence[ActivityRecord] | Iterable[ActivityRecord],
    *,
    device_name: str = "device",
) -> dict:
    """Build a Trace Event Format document from activity records.

    Every emitted event carries the required ``name``/``ph``/``ts``/
    ``pid``/``tid`` keys (metadata events included), and events are
    sorted by timestamp so each track is monotonic.
    """
    records = list(records)
    events: list[dict] = []

    # --- pid/tid naming metadata --------------------------------------
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": DEVICE_PID,
            "tid": 0,
            "args": {"name": device_name},
        }
    )
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": DRIVER_PID,
            "tid": 0,
            "args": {"name": "driver"},
        }
    )

    # Track (lane) -> tid, in order of first appearance by start time so
    # tid numbering is deterministic for a given record set.
    timed = sorted(
        (r for r in records if r.timed and r.kind != "counter"),
        key=lambda r: (r.start, r.seq),
    )
    tids: dict[str, int] = {}
    for rec in timed:
        track = rec.track or "device"
        if track not in tids:
            tids[track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": DEVICE_PID,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )

    # --- timed duration events ----------------------------------------
    for rec in timed:
        events.append(
            {
                "name": rec.name,
                "cat": rec.kind,
                "ph": "X",
                "ts": rec.start * _S_TO_US,
                "dur": rec.duration * _S_TO_US,
                "pid": DEVICE_PID,
                "tid": tids[rec.track or "device"],
                "args": _jsonable(dict(rec.args)),
            }
        )

    # --- counter series -----------------------------------------------
    for rec in records:
        if rec.kind != "counter":
            continue
        ts = (rec.end if rec.end is not None else 0.0) * _S_TO_US
        for metric, value in rec.args.items():
            if not isinstance(value, (int, float)):
                continue
            events.append(
                {
                    "name": metric,
                    "cat": "counter",
                    "ph": "C",
                    "ts": ts,
                    "pid": DEVICE_PID,
                    "tid": 0,
                    "args": {rec.name: round(float(value), 6)},
                }
            )

    # --- driver-phase instants ----------------------------------------
    # counters are always exported as "C" series above, even when a
    # caller stamped only `end`; everything else untimed is driver phase
    driver_tids: dict[str, int] = {}
    untimed = (r for r in records if not r.timed and r.kind != "counter")
    for rec in sorted(untimed, key=lambda r: r.seq):
        track = rec.track or "driver"
        if track not in driver_tids:
            driver_tids[track] = len(driver_tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": DRIVER_PID,
                    "tid": driver_tids[track],
                    "args": {"name": track},
                }
            )
        events.append(
            {
                "name": rec.name,
                "cat": rec.kind,
                "ph": "i",
                "s": "t",
                "ts": rec.seq * _DRIVER_TICK_US,
                "pid": DRIVER_PID,
                "tid": driver_tids[track],
                "args": _jsonable(dict(rec.args)),
            }
        )

    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.prof", "device": device_name},
    }


def write_chrome_trace(
    path: str | Path,
    records: Sequence[ActivityRecord],
    *,
    device_name: str = "device",
) -> Path:
    """Serialize records to ``path``; returns the path written."""
    path = Path(path)
    make_dirs(path.parent)
    path.write_text(json.dumps(chrome_trace(records, device_name=device_name)))
    return path
