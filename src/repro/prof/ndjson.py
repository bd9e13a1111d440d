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
    "iter_ndjson",
    "write_ndjson",
    "read_ndjson",
]


def record_to_json(rec: ActivityRecord) -> dict:
    """The stable NDJSON projection of one record."""
    return {
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
