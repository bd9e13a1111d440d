"""Content-addressed result cache for benchmark jobs.

A cache entry's key is the SHA-256 of everything the result can depend
on: the :func:`model_digest` (every source file of the ``repro``
package and NumPy's version), the canonical benchmark name, the
fully-resolved :class:`~repro.arch.spec.SystemSpec`, the job kind, the
run parameters (a figure point's include its x-value), and the
execution backend.  Any code edit, another GPU or another parameter
therefore changes the key; re-running an unchanged configuration is a
cache hit that replays the stored JSON payload — which round-trips
floats exactly, so a warm run is byte-identical to a cold one.

Entries live under ``.repro-cache/`` (git-ignored) as one JSON file per
key, published with :func:`~repro.common.durable.atomic_write` (the
"Durability" section of ``docs/resilience.md``) so concurrent sweep
workers never observe a torn entry.  Each entry additionally carries a SHA-256 checksum of its
payload; a read that finds an unparsable entry or a checksum mismatch
(a torn write that survived, bit rot, a partial copy) *quarantines* the
file — moves it to ``quarantine/`` under the cache root and counts it
in :meth:`ResultCache.stats` — and reports a miss so the scheduler
recomputes instead of crashing or replaying garbage.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.common.durable import atomic_write, make_dirs
from repro.common.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.sched.runner import JobSpec

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "CacheWriteError",
    "ResultCache",
    "gc_cache",
    "model_digest",
]

CACHE_SCHEMA = "repro-sched-cache/1"
DEFAULT_CACHE_DIR = ".repro-cache"


class CacheWriteError(ReproError):
    """The cache directory refused a write."""


@functools.cache
def model_digest() -> str:
    """SHA-256 of the code every result depends on.

    Covers every ``.py`` file of the imported ``repro`` package (its
    package-relative POSIX path and bytes, in path order) and NumPy's
    version.  Computed on first use and memoized for the life of the
    process, so a long-running process keys by the sources it read when
    it first computed a key.
    """
    import numpy

    root = Path(__file__).parent.parent       # the repro package
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel, data = path.relative_to(root).as_posix(), path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    digest.update(f"numpy {numpy.__version__}".encode())
    return digest.hexdigest()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _job_key(spec: "JobSpec", domain: str) -> str:
    """SHA-256 identity of one job under ``domain``: the model digest,
    the canonical benchmark name, the resolved system, kind, params and
    backend."""
    from repro.sched.runner import _resolve

    bench = _resolve(spec)
    material = {
        "domain": domain,
        "model": model_digest(),
        "benchmark": bench.name,
        "system": asdict(bench.system),
        "kind": spec.kind,
        "params": spec.params,
        "backend": spec.backend,
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


def _payload_checksum(payload: Any) -> str:
    """SHA-256 over the canonical JSON form of a payload.

    Canonicalization makes the checksum stable across the write
    (in-memory payload) and the verify (payload re-parsed from disk):
    JSON round-trips floats exactly, so both sides hash identically.
    """
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


@dataclass
class ResultCache:
    """On-disk content-addressed store with hit/miss accounting."""

    root: str | Path = DEFAULT_CACHE_DIR
    enabled: bool = True
    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantines: int = 0
    #: optional scheduler chaos plan: tears entries on read so the
    #: quarantine path is exercised deterministically (tests/CI)
    chaos: "FaultPlan | None" = field(default=None, repr=False, compare=False)
    _root_path: Path = field(init=False, repr=False)
    _reads: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._root_path = Path(self.root)

    # ------------------------------------------------------------------
    def key_for(self, spec: "JobSpec") -> str:
        """Content hash of one job's full dependency closure."""
        return _job_key(spec, "repro-sched-cache")

    def _path(self, key: str) -> Path:
        return self._root_path / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """Look a payload up; counts a hit, a miss, or a quarantine.

        A torn or checksum-failing entry is moved to ``quarantine/``
        and reads as a miss, so corruption costs one recompute instead
        of a crash or a silently wrong replay.
        """
        if not self.enabled:
            self.misses += 1
            return None
        path = self._path(key)
        read_ordinal = self._reads
        self._reads += 1
        if (
            self.chaos is not None
            and path.exists()
            and self.chaos.cache_read_corrupts(read_ordinal)
        ):
            # chaos: tear the entry on disk, then take the normal
            # guarded read path — the same code a real torn write hits
            try:
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
            except OSError:
                pass
        try:
            text = path.read_text()
        except OSError:
            # missing or unreadable file is a plain miss
            self.misses += 1
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict) or "payload" not in entry:
                raise ValueError("entry missing payload")
            stored = entry.get("sha256")
            if stored is not None:
                actual = _payload_checksum(entry["payload"])
                if actual != stored:
                    raise ValueError("payload checksum mismatch")
        except (json.JSONDecodeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            # a stale layout version, not corruption: plain miss
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def _quarantine(self, path: Path) -> None:
        """Move a corrupted entry aside for post-mortem; never raises."""
        qdir = self._root_path / "quarantine"
        try:
            make_dirs(qdir)
            os.replace(path, qdir / path.name)
        except OSError:  # pragma: no cover - cross-device or perms
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantines += 1

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store a payload atomically (rename over any concurrent writer).

        An :func:`~repro.common.durable.atomic_write`: concurrent
        writers (fleet workers, parallel sweeps on a shared cache) each
        publish a complete entry and the last rename wins; a crash
        leaves at most a ``*.tmp`` that ``repro cache gc`` removes.
        Entries are content-addressed so racing writers always carry
        identical payloads; ``get`` cross-checks the stored checksum
        regardless.

        An unwritable cache directory surfaces as a
        :class:`CacheWriteError` (CLI exit 2 with the path in the
        message) instead of a raw ``OSError`` traceback — ``--cache-dir``
        is user input.
        """
        if not self.enabled:
            return
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "sha256": _payload_checksum(payload),
            "payload": payload,
        }
        try:
            atomic_write(self._path(key), json.dumps(entry))
        except OSError as exc:
            raise CacheWriteError(
                f"result cache at {self._root_path} is not writable: {exc}; "
                "pick another --cache-dir or pass --no-cache"
            ) from None
        self.stores += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters for the exported ``execution``/scheduler metrics."""
        return {
            "enabled": self.enabled,
            "dir": str(self._root_path),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantines": self.quarantines,
        }


# ----------------------------------------------------------------------
# cache-directory tools (``repro cache gc``)

def _cache_entries(root: Path) -> list[dict[str, Any]]:
    """Every entry file under a cache root, oldest-access first."""
    entries: list[dict[str, Any]] = []
    for path in root.glob("??/*.json"):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append({
            "path": path,
            "key": path.stem,
            "bytes": st.st_size,
            # mtime doubles as last-use: hits rewrite nothing, but the
            # atomic publish refreshes it on every (re)store, and size
            # eviction wants *some* recency signal without adding reads
            "mtime": st.st_mtime,
        })
    entries.sort(key=lambda e: (e["mtime"], e["key"]))
    return entries


def gc_cache(
    root: str | Path = DEFAULT_CACHE_DIR,
    *,
    older_than_days: float | None = None,
    max_bytes: int | None = None,
    now: float | None = None,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Bound the result cache by age and/or total size.

    Follows the ``journal gc`` conventions (see
    :func:`repro.resilience.journal.gc_runs`): explicit cutoffs, a
    ``dry_run`` that reports without deleting, and a summary dict the
    CLI renders.  Passes:

    * **age** (with ``older_than_days``) — drop entries whose mtime is
      older than the cutoff;
    * **size** (with ``max_bytes``) — then, while the surviving total
      exceeds the budget, evict oldest-first (mtime is refreshed on
      every store, so this is LRU-by-publish);
    * **stale-artifact cleanup** (always) — orphaned ``*.tmp`` files
      from interrupted atomic writes and everything under
      ``quarantine/`` older than the age cutoff.

    Content-addressed entries make eviction always safe: a future miss
    recomputes the identical payload.
    """
    import time as _time

    root = Path(root)
    now = _time.time() if now is None else now
    cutoff = (
        now - older_than_days * 86400.0
        if older_than_days is not None else None
    )
    entries = _cache_entries(root) if root.is_dir() else []
    removed: list[dict[str, Any]] = []
    kept: list[dict[str, Any]] = []
    for entry in entries:
        if cutoff is not None and entry["mtime"] < cutoff:
            removed.append({**entry, "reason": "age"})
        else:
            kept.append(entry)
    if max_bytes is not None:
        total = sum(e["bytes"] for e in kept)
        while kept and total > max_bytes:
            victim = kept.pop(0)          # oldest mtime first
            total -= victim["bytes"]
            removed.append({**victim, "reason": "size"})
    if not dry_run:
        for entry in removed:
            try:
                entry["path"].unlink()
            except OSError:
                pass
        tmps = 0
        if root.is_dir():
            for tmp in root.rglob("*.tmp"):
                try:
                    tmp.unlink()
                    tmps += 1
                except OSError:
                    pass
            qdir = root / "quarantine"
            if qdir.is_dir() and cutoff is not None:
                for path in qdir.iterdir():
                    try:
                        if path.stat().st_mtime < cutoff:
                            path.unlink()
                    except OSError:
                        pass
            # drop now-empty shard directories so the tree stays tidy
            for shard in root.glob("??"):
                try:
                    shard.rmdir()
                except OSError:
                    pass
    else:
        tmps = sum(1 for _ in root.rglob("*.tmp")) if root.is_dir() else 0
    return {
        "removed": [
            {"key": e["key"], "bytes": e["bytes"], "reason": e["reason"]}
            for e in removed
        ],
        "kept": len(kept),
        "kept_bytes": sum(e["bytes"] for e in kept),
        "removed_bytes": sum(e["bytes"] for e in removed),
        "tmp_files_removed": tmps,
        "dry_run": dry_run,
    }
