"""NDJSON structured-log exporter.

One JSON object per line, one line per activity record — the format
log pipelines (jq, DuckDB, Loki, BigQuery) ingest without a schema
registry.  Field order is stable so diffs of two logs line up.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.common.durable import make_dirs
from repro.prof.activity import ActivityRecord

__all__ = [
    "record_to_json",
    "record_from_json",
    "iter_ndjson",
    "write_ndjson",
    "read_ndjson",
]


def record_to_json(rec: ActivityRecord) -> dict:
    """The stable NDJSON projection of one record.

    Trace identity is appended only when the record carries it, so logs
    produced without the observability plane stay byte-stable.
    """
    doc = {
        "seq": rec.seq,
        "kind": rec.kind,
        "name": rec.name,
        "track": rec.track,
        "start_s": rec.start,
        "end_s": rec.end,
        "dur_s": rec.duration if rec.timed else None,
        "args": {k: v if isinstance(v, (str, int, float, bool)) or v is None else str(v)
                 for k, v in rec.args.items()},
    }
    if rec.trace_id is not None:
        doc["trace_id"] = rec.trace_id
        doc["span_id"] = rec.span_id
        doc["parent_span_id"] = rec.parent_span_id
    return doc


def record_from_json(obj: dict) -> ActivityRecord:
    """Rebuild a record from its NDJSON projection (stitching/tests)."""
    return ActivityRecord(
        kind=obj["kind"],
        name=obj["name"],
        track=obj.get("track", ""),
        start=obj.get("start_s"),
        end=obj.get("end_s"),
        seq=int(obj.get("seq", 0)),
        args=dict(obj.get("args") or {}),
        trace_id=obj.get("trace_id"),
        span_id=obj.get("span_id"),
        parent_span_id=obj.get("parent_span_id"),
    )


def iter_ndjson(records: Iterable[ActivityRecord]) -> Iterator[str]:
    for rec in records:
        yield json.dumps(record_to_json(rec), sort_keys=False)


def write_ndjson(path: str | Path, records: Iterable[ActivityRecord]) -> Path:
    path = Path(path)
    make_dirs(path.parent)
    with path.open("w") as fh:
        for line in iter_ndjson(records):
            fh.write(line + "\n")
    return path


def read_ndjson(path: str | Path) -> list[dict]:
    """Parse an NDJSON log back into plain dicts (for tooling/tests)."""
    out = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
