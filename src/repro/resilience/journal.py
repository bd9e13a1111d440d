"""Append-only NDJSON run journal (``repro-journal/1``).

A :class:`RunJournal` checkpoints every completed unit of scheduler
work — one line per job, flushed as soon as the job's payload is known
— so an interrupted sweep loses nothing that finished.  ``--resume
<run-id>`` reopens the journal, and the scheduler skips any job whose
fingerprint is already recorded, replaying the stored payload instead
(byte-identical: payloads are the same JSON-ready dicts the result
types round-trip through).

Layout: one ``<run-id>.ndjson`` file per run under ``.repro-journal/``
(git-ignored).  The first line is a header record; every subsequent
line is one completed job::

    {"schema": "repro-journal/1", "run_id": "...", "command": "sweep", ...}
    {"job": "<fingerprint>", "payload": {...}, "meta": {...}}

Appends and reads go through :mod:`repro.common.durable` (see the
"Durability" section of ``docs/resilience.md``): a torn final line (the
process died mid-append) and unparsable lines are skipped instead of
refusing the whole journal, so a SIGKILL'd run still resumes from its
last complete checkpoint.

A job's *fingerprint* hashes the same dependency closure the result
cache keys on — benchmark sources, resolved system spec, parameters,
sweep value, and requested backend — so a resume never replays stale
work across a code or configuration change.
"""

from __future__ import annotations

import hashlib
import json
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
    "list_runs",
    "gc_runs",
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
    value × backend) so journal identity and cache identity invalidate
    together; the two hashes differ only by a domain prefix, keeping a
    journal line from ever being mistaken for a cache key.
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
        "values": list(spec.values) if spec.values is not None else None,
        "backend": spec.backend,
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


class RunJournal:
    """One run's append-only checkpoint file.

    Use :meth:`create` for a fresh run and :meth:`resume` to reopen an
    existing one; :meth:`record` appends and flushes one completed job,
    and :attr:`completed` maps job fingerprints to their stored
    payloads (pre-populated on resume).
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
    def create(
        cls,
        root: str | Path = DEFAULT_JOURNAL_DIR,
        *,
        run_id: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> "RunJournal":
        """Start a fresh journal; writes the header line immediately."""
        run_id = run_id or new_run_id()
        root = Path(root)
        path = root / f"{run_id}.ndjson"
        if path.exists():
            raise ReproError(
                f"journal {path} already exists; pass --resume {run_id} "
                "to continue it or pick another --run-id"
            )
        journal = cls(path, run_id, meta=meta)
        try:
            journal._out = Appender(path)
        except OSError as exc:
            raise ReproError(
                f"journal directory {root} is not writable: {exc}; "
                "pick another --journal-dir or pass --no-journal"
            ) from None
        journal._append(
            {"schema": JOURNAL_SCHEMA, "run_id": run_id, **journal.meta}
        )
        return journal

    @classmethod
    def resume(
        cls, root: str | Path, run_id: str
    ) -> "RunJournal":
        """Reopen an existing journal, loading its completed jobs."""
        path = Path(root) / f"{run_id}.ndjson"
        if not path.exists():
            raise ReproError(
                f"no journal for run {run_id!r} under {root} "
                f"(expected {path})"
            )
        header, completed = cls._load(path)
        if header.get("schema") != JOURNAL_SCHEMA:
            raise ReproError(
                f"journal {path} has schema {header.get('schema')!r}, "
                f"expected {JOURNAL_SCHEMA}"
            )
        journal = cls(
            path,
            header.get("run_id", run_id),
            completed=completed,
            meta={k: v for k, v in header.items() if k not in ("schema", "run_id")},
        )
        try:
            journal._out = Appender(path)
        except OSError as exc:
            raise ReproError(f"journal {path} is not writable: {exc}") from None
        return journal

    @classmethod
    def attach(
        cls,
        root: str | Path,
        *,
        run_id: str,
        meta: dict[str, Any] | None = None,
    ) -> "RunJournal":
        """Resume the journal if it exists, create it otherwise.

        The fleet path: a worker re-joining a run under the same id
        keeps appending to its own journal instead of refusing the run.
        """
        path = Path(root) / f"{run_id}.ndjson"
        if path.exists():
            return cls.resume(root, run_id)
        return cls.create(root, run_id=run_id, meta=meta)

    @staticmethod
    def _load(path: Path) -> tuple[dict[str, Any], dict[str, Any]]:
        """Parse a journal file, tolerating torn or garbage lines.

        The header is the first record carrying ``schema`` (so a torn
        header never promotes a job to header); a duplicated job keeps
        its last payload.
        """
        header: dict[str, Any] = {}
        completed: dict[str, Any] = {}
        for obj in read_records(path):
            if "schema" in obj and not header:
                header = obj
            elif "job" in obj:
                completed[obj["job"]] = obj.get("payload")
        return header, completed

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


# ----------------------------------------------------------------------
# journal-directory tools (``repro journal ls/show/gc``)

def _dir_mtime(path: Path) -> float:
    """Newest mtime under a run directory (activity, not creation)."""
    newest = path.stat().st_mtime
    for child in path.rglob("*"):
        try:
            newest = max(newest, child.stat().st_mtime)
        except OSError:
            continue
    return newest


def list_runs(root: str | Path) -> list[dict[str, Any]]:
    """Every run under a journal directory, newest first.

    Covers both plain ``<run-id>.ndjson`` journals and ``<run-id>.fleet``
    coordination directories.  Each entry carries ``run_id``, ``kind``
    (``"run"`` | ``"fleet"``), ``command``, ``jobs`` (completed count),
    ``mtime``, and ``path``.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    out: list[dict[str, Any]] = []
    for path in root.glob("*.ndjson"):
        header, completed = RunJournal._load(path)
        out.append({
            "run_id": path.stem,
            "kind": "run",
            "command": header.get("command", ""),
            "jobs": len(completed),
            "mtime": path.stat().st_mtime,
            "path": str(path),
        })
    for path in root.glob("*.fleet"):
        if not path.is_dir():
            continue
        manifest: dict[str, Any] = {}
        try:
            manifest = json.loads((path / "manifest.json").read_text())
        except (OSError, json.JSONDecodeError):
            pass
        completed: set[str] = set()
        for jf in (path / "journals").glob("*.ndjson"):
            _, done = RunJournal._load(jf)
            completed.update(done)
        out.append({
            "run_id": path.name[: -len(".fleet")],
            "kind": "fleet",
            "command": manifest.get("command", ""),
            "jobs": len(completed),
            "total": len(manifest.get("jobs", [])) or None,
            "mtime": _dir_mtime(path),
            "path": str(path),
        })
    out.sort(key=lambda e: (-e["mtime"], e["run_id"]))
    return out


def gc_runs(
    root: str | Path,
    *,
    older_than_days: float | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Prune a journal directory so long-lived ones stay bounded.

    Two passes:

    * **age-based** (only with ``older_than_days``): delete every run —
      journal file or fleet directory — whose newest mtime is older
      than the cutoff;
    * **stale-artifact cleanup** (always): expired lease files of every
      surviving fleet run, ``stolen/`` steal remnants, orphaned
      ``*.tmp`` files from interrupted atomic writes, and
      ``flightrec/<run-id>/`` flight-recorder dump directories whose
      run was removed above or no longer exists at all.

    Returns a summary dict; with ``dry_run`` nothing is deleted and
    ``removed`` lists what would have been.
    """
    import shutil
    import time as _time

    root = Path(root)
    now = _time.time() if now is None else now
    cutoff = (
        now - older_than_days * 86400.0
        if older_than_days is not None else None
    )
    removed: list[dict[str, Any]] = []
    leases_evicted = 0
    remnants = 0
    tmps = 0
    for entry in list_runs(root):
        path = Path(entry["path"])
        if cutoff is not None and entry["mtime"] < cutoff:
            removed.append(
                {"run_id": entry["run_id"], "kind": entry["kind"]}
            )
            if not dry_run:
                if entry["kind"] == "fleet":
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            continue
        if entry["kind"] == "fleet" and not dry_run:
            from repro.resilience.lease import LeaseDir

            lease_root = path / "leases"
            if lease_root.is_dir():
                swept = LeaseDir(lease_root).sweep_stale()
                leases_evicted += swept["evicted"]
                remnants += swept["remnants"]
            for tmp in path.rglob("*.tmp"):
                try:
                    tmp.unlink()
                    tmps += 1
                except OSError:
                    pass
    if not dry_run and root.is_dir():
        for tmp in root.glob("*.tmp"):
            try:
                tmp.unlink()
                tmps += 1
            except OSError:
                pass
    # pool flight-recorder dumps live beside the journals under
    # flightrec/<run-id>/ — sweep the directories of runs removed above
    # and of runs that no longer exist (orphaned dumps); fleet dumps
    # live inside the run directory and go with its rmtree
    flights = 0
    flight_root = root / "flightrec"
    if flight_root.is_dir():
        removed_ids = {e["run_id"] for e in removed}
        live = {
            e["run_id"] for e in list_runs(root)
        } - removed_ids
        for dump_dir in sorted(flight_root.iterdir()):
            if not dump_dir.is_dir() or dump_dir.name in live:
                continue
            flights += 1
            if not dry_run:
                shutil.rmtree(dump_dir, ignore_errors=True)
    return {
        "removed": removed,
        "kept": len(list_runs(root)) - (len(removed) if dry_run else 0),
        "stale_leases_evicted": leases_evicted,
        "steal_remnants_removed": remnants,
        "tmp_files_removed": tmps,
        "flight_dump_dirs_removed": flights,
        "dry_run": dry_run,
    }
