"""Append-only NDJSON run journal (``repro-journal/1``).

A :class:`RunJournal` checkpoints every completed unit of scheduler
work — one line per job, flushed as soon as the job's payload is known
— so an interrupted sweep loses nothing that finished.  ``--resume
<run-id>`` reopens the journal, and the scheduler skips any job whose
fingerprint is already recorded, replaying the stored payload instead
(byte-identical: payloads are the same JSON-ready dicts the result
types round-trip through).

Layout: under ``.repro-journal/`` (git-ignored), each worker of a run
directory keeps one under ``<run-id>.fleet/journals/``
(:mod:`~repro.resilience.fleet`, which also reads them and lists,
shows and prunes run directories).  The first line is a header record;
every subsequent line is one completed job::

    {"schema": "repro-journal/1", "run_id": "...", "command": "sweep", ...}
    {"job": "<fingerprint>", "payload": {...}, "meta": {...}}

Appends and reads go through :mod:`repro.common.durable` (see the
"Durability" section of ``docs/resilience.md``): a torn final line (the
process died mid-append) and unparsable lines are skipped instead of
refusing the whole journal, so a SIGKILL'd run still resumes from its
last complete checkpoint.

A job's *fingerprint* hashes the same dependency closure the result
cache keys on — benchmark sources, resolved system spec, parameters
(a figure point's include its x-value), and requested backend — so a
resume never replays stale work across a code or configuration
change.
"""

from __future__ import annotations

import hashlib
import uuid
from pathlib import Path
from typing import Any

from repro.common.durable import Appender, read_records
from repro.common.errors import ReproError

__all__ = [
    "JOURNAL_SCHEMA",
    "DEFAULT_JOURNAL_DIR",
    "RunJournal",
    "job_fingerprint",
    "new_run_id",
]

JOURNAL_SCHEMA = "repro-journal/1"
DEFAULT_JOURNAL_DIR = ".repro-journal"


def new_run_id() -> str:
    """A short collision-resistant id for a fresh run."""
    return uuid.uuid4().hex[:12]


def job_fingerprint(spec) -> str:
    """Stable identity of one :class:`~repro.sched.runner.JobSpec`.

    Shares the result cache's key material (sources × system × params ×
    backend) so journal identity and cache identity invalidate
    together; the two hashes differ only by a domain prefix, keeping a
    journal line from ever being mistaken for a cache key.  A ``check``
    job's params hold its claim file's text, so editing the claims
    changes the fingerprint too.
    """
    from dataclasses import asdict

    from repro.sched.cache import _canonical, source_fingerprint
    from repro.sched.runner import _resolve

    bench = _resolve(spec)
    material = {
        "domain": "repro-journal",
        "benchmark": spec.benchmark,
        "sources": source_fingerprint(type(bench)),
        "system": asdict(bench.system),
        "kind": spec.kind,
        "params": spec.params,
        "backend": spec.backend,
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


class RunJournal:
    """One worker's append-only checkpoint file.

    :meth:`attach` opens it; :meth:`record` appends and flushes one
    completed job, and :attr:`completed` maps job fingerprints to their
    stored payloads (pre-populated when the file already existed).
    """

    def __init__(
        self,
        path: Path,
        run_id: str,
        *,
        completed: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.path = path
        self.run_id = run_id
        self.meta = dict(meta or {})
        #: fingerprint -> payload for every job already checkpointed
        self.completed: dict[str, Any] = dict(completed or {})
        self._out: Appender | None = None

    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        root: str | Path,
        *,
        run_id: str,
        meta: dict[str, Any] | None = None,
    ) -> "RunJournal":
        """Open ``<root>/<run_id>.ndjson``, creating it (header line
        first) when it holds no complete record and loading its
        completed jobs when it does.

        A worker re-joining a run under the same id, or a resumed serial
        run, keeps appending to its own journal.  A file with no
        complete record is what a kill between creating it and appending
        its header leaves, so it is new; one with job records but no
        header, or another schema's header, is refused.  The run-level
        refusals (an existing ``--run-id``, a missing ``--resume``) are
        the CLI's, made before any journal opens.
        """
        path = Path(root) / f"{run_id}.ndjson"
        header: dict[str, Any] = {}
        records: dict[str, Any] = {}
        completed: dict[str, Any] = {}
        if path.exists():
            header, records = cls._load(path)
        if header or records:
            if header.get("schema") != JOURNAL_SCHEMA:
                raise ReproError(
                    f"journal {path} has schema {header.get('schema')!r}, "
                    f"expected {JOURNAL_SCHEMA}"
                )
            completed = {fp: r.get("payload") for fp, r in records.items()}
            meta = {
                k: v for k, v in header.items() if k not in ("schema", "run_id")
            }
        journal = cls(
            path, header.get("run_id", run_id), completed=completed, meta=meta
        )
        try:
            journal._out = Appender(path)
        except OSError as exc:
            raise ReproError(
                f"journal directory {root} is not writable: {exc}; "
                "pick another --journal-dir or pass --no-journal"
            ) from None
        if not header:
            journal._append(
                {"schema": JOURNAL_SCHEMA, "run_id": run_id, **journal.meta}
            )
        return journal

    @staticmethod
    def _load(path: Path) -> tuple[dict[str, Any], dict[str, Any]]:
        """``(header, fingerprint -> record)`` of a journal file,
        tolerating torn or garbage lines.

        The header is the first record carrying ``schema`` (so a torn
        header never promotes a job to header); each record keeps its
        ``payload`` and ``meta``, and a duplicated job keeps its last.
        """
        header: dict[str, Any] = {}
        records: dict[str, Any] = {}
        for obj in read_records(path):
            if "schema" in obj and not header:
                header = obj
            elif "job" in obj:
                records[obj["job"]] = obj
        return header, records

    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: str,
        payload: Any,
        *,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Checkpoint one completed job (append + flush)."""
        entry: dict[str, Any] = {"job": fingerprint, "payload": payload}
        if meta:
            entry["meta"] = meta
        self._append(entry)
        self.completed[fingerprint] = payload

    def _append(self, obj: dict[str, Any]) -> None:
        if self._out is None:  # pragma: no cover - defensive
            raise ReproError(f"journal {self.path} is not open for writing")
        self._out.append(obj)

    def close(self) -> None:
        if self._out is not None:
            self._out.close()
            self._out = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunJournal(run_id={self.run_id!r}, completed={len(self)})"
