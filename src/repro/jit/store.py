"""Artifact store: memoized + persisted trace artifacts.

Two tiers, both keyed by the launch's trace key:

* an in-process memo of parsed :class:`JitArtifact` objects — warm
  launches inside one process (sweep x-values, repeated rounds) pay a
  dict lookup;
* an on-disk tier reusing the content-addressed
  :class:`~repro.sched.cache.ResultCache` (atomic publishes, see the
  "Durability" section of ``docs/resilience.md``; payload checksums;
  quarantine of torn entries), so a second
  *process* — a fresh CLI run, a pool worker, a fleet worker on the
  same directory — skips tracing too and only parses the artifact's
  JSON.

Disk entries are data, validated by
:func:`~repro.jit.codegen.compile_artifact`: one of another schema
version or failing validation reads as a miss, and is retraced and
overwritten.

Poisoned keys (launches whose replay guards failed: data-dependent
addressing) are remembered in both tiers so every later launch with
that key goes straight to analysis instead of thrashing between
retrace and bailout.

The store defaults to ``.repro-cache/jit`` next to the scheduler's
result cache; ``REPRO_JIT_CACHE_DIR`` overrides the directory and the
value ``off`` keeps the store in memory only.  A process-global default
store backs every :class:`~repro.jit.dispatch.JitDispatch` unless one
is injected, and :func:`jit_stats` snapshots it for the ``--stats``
sidecar.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from repro.common.errors import ReproError
from repro.jit.codegen import JitArtifact, compile_artifact
from repro.sched.cache import DEFAULT_CACHE_DIR, ResultCache

__all__ = [
    "JIT_SCHEMA",
    "DEFAULT_JIT_CACHE_DIR",
    "ArtifactStore",
    "default_store",
    "reset_jit_store",
    "jit_stats",
]

JIT_SCHEMA = "repro-jit-artifact/2"
DEFAULT_JIT_CACHE_DIR = str(Path(DEFAULT_CACHE_DIR) / "jit")
_ENV_DIR = "REPRO_JIT_CACHE_DIR"


class ArtifactStore:
    """Trace-artifact cache with hit/miss/poison accounting."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_DIR) or DEFAULT_JIT_CACHE_DIR
        self.root = str(root)
        self._memo: dict[str, JitArtifact] = {}
        self._poisoned: set[str] = set()
        self._disk: ResultCache | None = (
            None if self.root == "off" else ResultCache(self.root)
        )
        self.memo_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.poisoned = 0
        self.disk_errors = 0

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> JitArtifact | None:
        """Find an artifact; promotes valid disk entries to the memo.

        Returns ``None`` both for a genuine miss and for a poisoned key
        — callers distinguish via :meth:`is_poisoned` (a poisoned key
        must not replay, a miss should be traced).
        """
        if key in self._poisoned:
            return None
        art = self._memo.get(key)
        if art is not None:
            self.memo_hits += 1
            return art
        if self._disk is not None:
            payload = self._disk.get(key)
            if isinstance(payload, dict) and payload.get("schema") == JIT_SCHEMA:
                if payload.get("poisoned"):
                    self._poisoned.add(key)
                    return None
                try:
                    art = compile_artifact(
                        key, str(payload.get("kernel")),
                        str(payload.get("source")),
                    )
                except (ValueError, RecursionError):
                    pass  # malformed or hand-edited: retrace and overwrite
                else:
                    self.disk_hits += 1
                    self._memo[key] = art
                    return art
        self.misses += 1
        return None

    def is_poisoned(self, key: str) -> bool:
        return key in self._poisoned

    def put(self, key: str, artifact: JitArtifact) -> None:
        """Publish a freshly recorded artifact to both tiers."""
        self._memo[key] = artifact
        self.stores += 1
        self._disk_put(
            key,
            {
                "schema": JIT_SCHEMA,
                "key": key,
                "kernel": artifact.kernel,
                "source": artifact.source,
            },
        )

    def poison(self, key: str) -> None:
        """Ban a key: replays diverged, so it must stay on reference."""
        if key in self._poisoned:
            return
        self._poisoned.add(key)
        self._memo.pop(key, None)
        self.poisoned += 1
        self._disk_put(
            key, {"schema": JIT_SCHEMA, "key": key, "poisoned": True}
        )

    def _disk_put(self, key: str, payload: dict[str, Any]) -> None:
        """Best-effort persistence: an unwritable store must never fail
        a run, so the disk tier is dropped on the first error."""
        if self._disk is None:
            return
        try:
            self._disk.put(key, payload)
        except ReproError:
            self._disk = None
            self.disk_errors += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters for the ``--stats`` sidecar's ``jit`` section."""
        return {
            "dir": self.root,
            "persistent": self._disk is not None,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "poisoned": self.poisoned,
            "disk_errors": self.disk_errors,
        }


_default: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The process-global store shared by every jit dispatcher."""
    global _default
    if _default is None:
        _default = ArtifactStore()
    return _default


def reset_jit_store() -> None:
    """Drop the global store (tests; re-resolves ``REPRO_JIT_CACHE_DIR``)."""
    global _default
    _default = None


def jit_stats() -> dict[str, Any]:
    """Snapshot of the global store's counters."""
    return default_store().stats()
