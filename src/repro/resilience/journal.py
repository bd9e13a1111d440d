"""Append-only NDJSON worker log (``repro-journal/1``): the one log a
worker writes.

A :class:`RunJournal` checkpoints every completed unit of scheduler
work — one line per job, flushed as soon as the job's payload is known
— so an interrupted sweep loses nothing that finished, and logs the
worker's health events between them.  ``--resume <run-id>`` reopens
the journal, and the scheduler skips any job whose fingerprint is
already recorded, replaying the stored payload instead (byte-identical:
payloads are the same JSON-ready dicts the result types round-trip
through).

Layout: under ``.repro-journal/`` (git-ignored), each worker of a run
directory keeps one under ``<run-id>.fleet/journals/``
(:mod:`~repro.resilience.fleet`, which also reads them and lists,
shows and prunes run directories).  The first line is a header record;
every subsequent line is a health event or a completed job::

    {"schema": "repro-journal/1", "run_id": "...", "command": "sweep", ...}
    {"event": "lease-acquire", "worker": "...", "t": ..., "job": 0, ...}
    {"job": "<fingerprint>", "payload": {...}, "meta": {...},
     "t": ..., "activity": [...]}

An event names its job by manifest ordinal, a completion by
fingerprint; an executed job's completion also carries ``t`` and the
successful attempt's activity records.  A completion is one append, so
a torn tail drops the whole job, activity included.

Appends and reads go through :mod:`repro.common.durable` (see the
"Durability" section of ``docs/resilience.md``): a torn final line (the
process died mid-append) and unparsable lines are skipped instead of
refusing the whole journal, so a SIGKILL'd run still resumes from its
last complete checkpoint.

A job's *fingerprint* is the result cache's key under another domain:
the model digest (:func:`~repro.sched.cache.model_digest`, every source
file of the package and NumPy's version), the benchmark, the resolved
system spec, the kind, the parameters (a figure point's include its
x-value) and the requested backend — so a resume never replays stale
work across a code or configuration change.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.common.durable import Appender, read_appended
from repro.common.errors import ReproError

__all__ = [
    "JOURNAL_SCHEMA",
    "DEFAULT_JOURNAL_DIR",
    "RunJournal",
    "WorkerLog",
    "read_log",
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

    The result cache's key material under the ``repro-journal`` domain,
    so journal identity and cache identity invalidate together while a
    journal line can never be mistaken for a cache key.  A ``check``
    job's params hold its claim file's text, so editing the claims
    changes the fingerprint too.
    """
    from repro.sched.cache import _job_key

    return _job_key(spec, "repro-journal")


@dataclass
class WorkerLog:
    """One worker's log, as :func:`read_log` reads it back."""

    header: dict[str, Any] = field(default_factory=dict)
    #: health events, in append order
    events: list[dict[str, Any]] = field(default_factory=list)
    #: fingerprint -> completion line, in append order; a job completed
    #: twice keeps its last line
    completions: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: how many bytes of the file are read
    size: int = 0


def read_log(path: str | Path, log: WorkerLog | None = None) -> WorkerLog:
    """The header, events and completions of one worker's log, torn or
    garbage lines skipped; given an earlier call's ``log``, reads what
    was appended since into it.  The header is the first record with a
    ``schema``; a line is an event when it names one, else a completion
    when its ``job`` is a fingerprint.
    """
    log = log or WorkerLog()
    records, log.size = read_appended(path, log.size)
    for obj in records:
        if "event" in obj:
            log.events.append(obj)
        elif "schema" in obj:
            log.header = log.header or obj
        elif isinstance(obj.get("job"), str):
            log.completions[obj["job"]] = obj
    return log


class RunJournal:
    """One worker's append-only log.

    :meth:`attach` opens it; :meth:`record` appends and flushes one
    completed job, :meth:`emit` one health event, and :attr:`completed`
    maps job fingerprints to their stored payloads (pre-populated when
    the file already existed).
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
        its header leaves, so it is new; one with records but no
        header, or another schema's header, is refused.  The run-level
        refusals (an existing ``--run-id``, a missing ``--resume``) are
        the CLI's, made before any journal opens.
        """
        path = Path(root) / f"{run_id}.ndjson"
        log = read_log(path) if path.exists() else WorkerLog()
        header = log.header
        completed: dict[str, Any] = {}
        if header or log.events or log.completions:
            if header.get("schema") != JOURNAL_SCHEMA:
                raise ReproError(
                    f"journal {path} has schema {header.get('schema')!r}, "
                    f"expected {JOURNAL_SCHEMA}"
                )
            completed = {
                fp: r.get("payload") for fp, r in log.completions.items()
            }
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

    # ------------------------------------------------------------------
    def record(
        self,
        fingerprint: str,
        payload: Any,
        *,
        meta: dict[str, Any] | None = None,
        activity: list[dict[str, Any]] | None = None,
    ) -> None:
        """Checkpoint one completed job (append + flush); an executed
        job's ``activity`` lands on the same line, with its time."""
        entry: dict[str, Any] = {"job": fingerprint, "payload": payload}
        if meta:
            entry["meta"] = meta
        if activity is not None:
            entry["t"] = time.time()
            entry["activity"] = activity
        self._append(entry)
        self.completed[fingerprint] = payload

    def emit(self, event: str, **args: Any) -> None:
        """Log one health event (append + flush).  Its ``t`` (wall
        clock) feeds the monitor's last-seen and ETA columns; it never
        enters merged payloads or traces."""
        self._append({
            "event": event, "worker": self.run_id, "t": time.time(), **args,
        })

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
