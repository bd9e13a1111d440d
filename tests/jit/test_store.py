"""ArtifactStore: memo + disk tiers, poisoning, corruption recovery."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.jit import JIT_SCHEMA, ArtifactStore, default_store, jit_stats, reset_jit_store
from repro.jit.codegen import TraceEvent, compile_artifact, generate_source
from repro.jit.guards import lane_fingerprint
from repro.mem.coalesce import AccessSummary

KEY = "cd" * 32


def _artifact(key=KEY):
    ev = TraceEvent(
        "global",
        (4, 32, 128, 32),
        lane_fingerprint(np.arange(64) * 4, None),
        AccessSummary(
            n_warps=2, n_active_lanes=64, transactions=4.0, sectors=8.0,
            bursts=4.0, unique_sectors=8.0, unique_bursts=4.0,
            bytes_requested=256, sample_fraction=1.0,
        ),
    )
    return compile_artifact(key, "k", generate_source(key, "k", [ev]))


class TestMemoTier:
    def test_put_then_lookup(self, tmp_path):
        store = ArtifactStore(tmp_path / "jit")
        assert store.lookup(KEY) is None
        store.put(KEY, _artifact())
        art = store.lookup(KEY)
        assert art is not None and art.key == KEY
        assert store.stats()["memo_hits"] == 1
        assert store.stats()["misses"] == 1

    def test_memory_only_mode(self, tmp_path):
        store = ArtifactStore("off")
        store.put(KEY, _artifact())
        assert store.lookup(KEY) is not None
        assert store.stats()["persistent"] is False
        # nothing written anywhere
        assert not (tmp_path / "off").exists()


class TestDiskTier:
    def test_cross_store_reuse(self, tmp_path):
        """A second store on the same directory loads from disk."""
        root = tmp_path / "jit"
        ArtifactStore(root).put(KEY, _artifact())
        fresh = ArtifactStore(root)
        art = fresh.lookup(KEY)
        assert art is not None and art.kernel == "k"
        assert fresh.stats()["disk_hits"] == 1
        # promoted to the memo: second lookup skips the disk
        fresh.lookup(KEY)
        assert fresh.stats()["memo_hits"] == 1

    def test_corrupt_source_recomputes(self, tmp_path):
        """A persisted artifact that no longer parses is a miss."""
        root = tmp_path / "jit"
        store = ArtifactStore(root)
        store.put(KEY, _artifact())
        # corrupt every payload's source in place
        for p in Path(root).rglob("*.json"):
            doc = json.loads(p.read_text())
            payload = doc.get("payload", doc)
            if payload.get("schema") == JIT_SCHEMA and "source" in payload:
                payload["source"] = "def ("  # syntax error
                p.write_text(json.dumps(doc))
        fresh = ArtifactStore(root)
        assert fresh.lookup(KEY) is None
        assert fresh.stats()["misses"] == 1

    def test_poison_persists(self, tmp_path):
        root = tmp_path / "jit"
        store = ArtifactStore(root)
        store.put(KEY, _artifact())
        store.poison(KEY)
        assert store.lookup(KEY) is None
        assert store.is_poisoned(KEY)
        # a fresh process sees the ban, not the stale artifact
        fresh = ArtifactStore(root)
        assert fresh.lookup(KEY) is None
        assert fresh.is_poisoned(KEY)

    def test_unwritable_directory_degrades(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        store = ArtifactStore(blocker / "jit")
        store.put(KEY, _artifact())  # must not raise
        assert store.stats()["disk_errors"] == 1
        assert store.stats()["persistent"] is False
        assert store.lookup(KEY) is not None  # memo still works


class TestGlobalStore:
    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path / "here"))
        reset_jit_store()
        try:
            assert default_store().root == str(tmp_path / "here")
            assert jit_stats()["dir"] == str(tmp_path / "here")
            assert default_store() is default_store()
        finally:
            reset_jit_store()

    def test_stats_shape(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_CACHE_DIR", "off")
        reset_jit_store()
        try:
            stats = jit_stats()
        finally:
            reset_jit_store()
        assert set(stats) == {
            "dir", "persistent", "memo_hits", "disk_hits", "misses",
            "stores", "poisoned", "disk_errors",
        }
