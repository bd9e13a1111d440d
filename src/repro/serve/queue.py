"""Durable request queue: fsync'd intake journal + atomic state files.

The durability contract of ``repro serve`` is **accepted means
persisted**: a request is written — appended to the intake journal and
given a per-request state file, both made durable through
:mod:`repro.common.durable` (the "Durability" section of
``docs/resilience.md``) — *before* the 202 goes back to the client, so
a ``kill -9`` or a power cut at any later instant loses nothing that
was acknowledged.  Layout under the data dir::

    intake.ndjson            append-only accept log (fsync per line)
    requests/<id>.json       per-request state, atomic publish
    journals/<id>.fleet/     per-request run directory (checkpoint/resume)
    results/<fp>.json        finished result documents, content-addressed

The intake journal is the recovery spine: a crash mid-append leaves an
unparsable last line that is skipped (the client never got its 202, so
nothing acknowledged is lost) and terminated before the next append,
and the journal alone can rebuild a request whose state-file write
never landed.  State files carry the full request plus its lifecycle
state; they are republished on every transition, so a reader sees
either the old state or the new one, never a torn file.

One daemon owns a data dir, so claiming a request needs no lock on
disk: a worker thread pops it from the in-memory FIFO under the queue's
lock, and the ``running`` state it publishes is the crash marker.  A
request found ``running`` at startup — the daemon was SIGKILL'd
mid-job — is re-enqueued by recovery and resumes from its per-request
run directory.

Idempotency rides on the same store: the queue indexes request
fingerprints, so a duplicate submission maps to the original request
id — a finished duplicate replays the stored result byte-identically,
an in-flight duplicate returns the same id to poll, and a failed or
expired duplicate re-arms the original request for another attempt.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.common.durable import Appender, atomic_write, make_dirs, read_records
from repro.common.errors import ReproError
from repro.resilience.journal import new_run_id
from repro.serve.request import STATES, ServeRequest, validate_request

__all__ = ["INTAKE_SCHEMA", "STATE_SCHEMA", "QueueEntry", "DurableQueue"]

INTAKE_SCHEMA = "repro-serve-intake/1"
STATE_SCHEMA = "repro-serve-state/1"

#: terminal request states (no further transitions)
_TERMINAL = ("done", "failed", "expired")
#: states that count against a client's admission cap
_OPEN = ("queued", "running")


class QueueEntry:
    """In-memory view of one request's durable state."""

    __slots__ = (
        "id", "seq", "request", "state", "attempts", "error",
        "result_fingerprint", "submitted_at", "started_at", "finished_at",
        "cond",
    )

    def __init__(self, id: str, seq: int, request: ServeRequest) -> None:
        self.id = id
        self.seq = seq
        self.request = request
        self.state = "queued"
        self.attempts = 0
        self.error: str | None = None
        self.result_fingerprint: str | None = None
        self.submitted_at: float = 0.0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: notified on every transition, which wakes ``?watch=1`` streams
        self.cond = threading.Condition()

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    @property
    def deadline_at(self) -> float | None:
        if self.request.deadline_ms is None:
            return None
        return self.submitted_at + self.request.deadline_ms / 1000.0

    def status_doc(self) -> dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` response body."""
        doc: dict[str, Any] = {
            "schema": STATE_SCHEMA,
            "id": self.id,
            "state": self.state,
            "fingerprint": self.request.fingerprint,
            "request": self.request.as_dict(),
            "client": self.request.client,
            "seq": self.seq,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            doc["started_at"] = self.started_at
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.error is not None:
            doc["error"] = self.error
        if self.result_fingerprint is not None:
            doc["result"] = f"/v1/results/{self.result_fingerprint}"
        return doc


class DurableQueue:
    """The daemon's accepted-request store and FIFO dispatch queue.

    All mutation happens under one lock; durable writes (intake append,
    state-file replace) happen inside the mutating call, before it
    returns — the in-memory indexes are a cache over the files, never
    the other way around.  Per-state and per-client open counts are
    kept as entries are indexed and change state, so admission and
    ``/readyz`` cost the same however long the daemon has run.  ``now``
    is injectable for deterministic tests.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        now: Callable[[], float] = time.time,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.now = now
        try:
            for sub in ("requests", "results", "journals"):
                make_dirs(self.data_dir / sub)
        except OSError as exc:
            raise ReproError(
                f"serve data dir {self.data_dir} is not writable: {exc}; "
                "pick another --data-dir"
            ) from None
        self._lock = threading.RLock()
        self._ready = threading.Condition(self._lock)
        self._entries: dict[str, QueueEntry] = {}
        self._by_fingerprint: dict[str, str] = {}
        self._state_counts = {state: 0 for state in STATES}
        #: queued + running entries per client
        self._client_open: dict[str, int] = {}
        self._pending: deque[str] = deque()
        self._seq = 0
        self._intake_path = self.data_dir / "intake.ndjson"
        self._intake: Appender | None = None

    # -- intake journal -------------------------------------------------
    def _intake_append(self, obj: dict[str, Any]) -> None:
        if self._intake is None:
            fresh = not self._intake_path.exists()
            self._intake = Appender(self._intake_path)
            if fresh:
                self._intake.append(
                    {"schema": INTAKE_SCHEMA, "created_at": self.now()}
                )
        self._intake.append(obj)

    @staticmethod
    def _read_intake(path: Path) -> list[dict[str, Any]]:
        """The request lines of the intake journal, skipping a torn tail."""
        return [obj for obj in read_records(path) if "id" in obj]

    # -- state files ----------------------------------------------------
    def _state_path(self, request_id: str) -> Path:
        return self.data_dir / "requests" / f"{request_id}.json"

    def _persist(self, entry: QueueEntry) -> None:
        doc = entry.status_doc()
        doc.pop("result", None)
        if entry.result_fingerprint is not None:
            doc["result_fingerprint"] = entry.result_fingerprint
        atomic_write(
            self._state_path(entry.id), json.dumps(doc, indent=2) + "\n"
        )

    def _load_state(self, path: Path) -> QueueEntry | None:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("schema") != STATE_SCHEMA:
            return None
        try:
            request = validate_request(
                doc["request"], client=doc.get("client") or None
            )
            # the persisted fingerprint, not a re-derived one: it may be
            # a user Idempotency-Key, and — after a source change — it is
            # the key the original acceptance was made under
            request.fingerprint = doc["fingerprint"]
            entry = QueueEntry(doc["id"], int(doc["seq"]), request)
        except (ReproError, KeyError, TypeError, ValueError):
            return None
        state = doc.get("state")
        entry.state = state if state in STATES else "queued"
        entry.attempts = int(doc.get("attempts", 0))
        entry.error = doc.get("error")
        entry.result_fingerprint = doc.get("result_fingerprint")
        entry.submitted_at = float(doc.get("submitted_at", 0.0))
        entry.started_at = doc.get("started_at")
        entry.finished_at = doc.get("finished_at")
        return entry

    # -- submission -----------------------------------------------------
    def submit(self, request: ServeRequest) -> tuple[QueueEntry, bool]:
        """Accept a request durably; returns ``(entry, duplicate)``.

        The intake line and the state file are flushed before this
        returns — the caller may acknowledge the moment it does.  A
        duplicate fingerprint maps onto the original entry: terminal
        failures and expiries are re-armed (state back to ``queued``,
        re-dispatched), anything else is returned as-is.
        """
        with self._lock:
            existing_id = self._by_fingerprint.get(request.fingerprint)
            if existing_id is not None:
                entry = self._entries[existing_id]
                if entry.state in ("failed", "expired"):
                    self._transition(entry, "queued", error=None)
                    self._pending.append(entry.id)
                    self._ready.notify()
                return entry, True
            entry = QueueEntry(new_run_id(), self._seq, request)
            self._seq += 1
            entry.submitted_at = self.now()
            self._intake_append({
                "id": entry.id,
                "seq": entry.seq,
                "fingerprint": request.fingerprint,
                "client": request.client,
                "submitted_at": entry.submitted_at,
                "request": request.as_dict(),
            })
            self._persist(entry)
            self._index(entry)
            self._pending.append(entry.id)
            self._ready.notify()
            return entry, False

    def _index(self, entry: QueueEntry) -> None:
        """Add a new entry (submitted, or rebuilt by recovery) to the
        indexes and the counts; the caller holds the lock."""
        self._entries[entry.id] = entry
        self._by_fingerprint[entry.request.fingerprint] = entry.id
        self._count(entry, 1)

    def _count(self, entry: QueueEntry, delta: int) -> None:
        """Add ``delta`` to the counts of the entry's current state."""
        self._state_counts[entry.state] += delta
        if entry.state in _OPEN:
            client = entry.request.client
            self._client_open[client] = self._client_open.get(client, 0) + delta

    # -- dispatch -------------------------------------------------------
    def claim(self, *, timeout: float | None = None) -> QueueEntry | None:
        """Pop the next pending request and mark it ``running``; None on
        timeout.  The published ``running`` state is the crash marker
        recovery looks for."""
        with self._lock:
            if not self._pending:
                self._ready.wait(timeout)
            if not self._pending:
                return None
            entry = self._entries[self._pending.popleft()]
            entry.attempts += 1
            entry.started_at = self.now()
            self._transition(entry, "running")
            return entry

    # -- transitions ----------------------------------------------------
    def _transition(
        self, entry: QueueEntry, state: str, *, error: str | None = None,
        result_fingerprint: str | None = None,
    ) -> None:
        self._count(entry, -1)
        entry.state = state
        self._count(entry, 1)
        entry.error = error
        if result_fingerprint is not None:
            entry.result_fingerprint = result_fingerprint
        if state in _TERMINAL:
            entry.finished_at = self.now()
        self._persist(entry)
        with entry.cond:
            entry.cond.notify_all()

    def _finish(
        self, entry: QueueEntry, state: str, *, error: str | None = None,
        result_fingerprint: str | None = None,
    ) -> None:
        with self._lock:
            self._transition(
                entry, state, error=error,
                result_fingerprint=result_fingerprint,
            )

    def complete(self, entry: QueueEntry, result_fingerprint: str) -> None:
        self._finish(entry, "done", result_fingerprint=result_fingerprint)

    def fail(self, entry: QueueEntry, error: str) -> None:
        self._finish(entry, "failed", error=error)

    def expire(self, entry: QueueEntry, error: str) -> None:
        self._finish(entry, "expired", error=error)

    def requeue(self, entry: QueueEntry) -> None:
        """Put a claimed-but-unfinished request back (drain checkpoint)."""
        with self._lock:
            self._transition(entry, "queued")
            self._pending.append(entry.id)
            self._ready.notify()

    # -- lookups --------------------------------------------------------
    def get(self, request_id: str) -> QueueEntry | None:
        with self._lock:
            return self._entries.get(request_id)

    def by_fingerprint(self, fingerprint: str) -> QueueEntry | None:
        with self._lock:
            request_id = self._by_fingerprint.get(fingerprint)
            return self._entries.get(request_id) if request_id else None

    def depth(self) -> int:
        """Requests accepted but not yet claimed (the admission bound)."""
        with self._lock:
            return len(self._pending)

    def inflight(self) -> int:
        with self._lock:
            return self._state_counts["running"]

    def client_load(self, client: str) -> int:
        """Queued + running requests attributed to one client."""
        with self._lock:
            return self._client_open.get(client, 0)

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._state_counts)

    def wake_all(self) -> None:
        """Wake every blocked ``claim`` (drain) and status streamer."""
        with self._lock:
            self._ready.notify_all()
            for entry in self._entries.values():
                with entry.cond:
                    entry.cond.notify_all()

    # -- results --------------------------------------------------------
    def result_path(self, fingerprint: str) -> Path:
        return self.data_dir / "results" / f"{fingerprint}.json"

    def put_result(self, fingerprint: str, text: str) -> Path:
        """Publish a finished result document atomically.

        Content-addressed by request fingerprint: racing writers (a
        re-run after recovery that lost the completion race) carry
        identical bytes, so last-rename-wins is safe.
        """
        path = self.result_path(fingerprint)
        atomic_write(path, text)
        return path

    def get_result(self, fingerprint: str) -> bytes | None:
        try:
            return self.result_path(fingerprint).read_bytes()
        except OSError:
            return None

    def close(self) -> None:
        if self._intake is not None:
            self._intake.close()
            self._intake = None
