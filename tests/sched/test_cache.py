"""Content-addressed result cache: keys, round-trips, accounting."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sched.cache import CACHE_SCHEMA, ResultCache, model_digest
from repro.sched.runner import JobSpec


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def key(cache, **over):
    base = dict(
        benchmark="CoMem",
        system="carina",
        kind="run",
        params={"n": 1 << 19},
        backend="reference",
    )
    base.update(over)
    return cache.key_for(JobSpec(**base))


class TestKeying:
    def test_deterministic(self, cache):
        assert key(cache) == key(cache)

    def test_params_change_key(self, cache):
        assert key(cache) != key(cache, params={"n": 1 << 19, "a": 3.0})

    def test_values_change_key(self, cache):
        # a figure point's x-value is one of its run parameters
        assert key(cache) != key(cache, params={"n": 1 << 20})

    def test_backend_changes_key(self, cache):
        assert key(cache) != key(cache, backend="jit")

    def test_system_changes_key(self, cache):
        assert key(cache) != key(cache, system="fornax")

    def test_benchmark_changes_key(self, cache):
        assert key(cache) != key(cache, benchmark="Shmem")

    def test_kind_changes_key(self, cache):
        assert key(cache) != key(cache, kind="check")

    def test_model_digest_stable(self):
        assert model_digest() == model_digest()
        assert len(model_digest()) == 64

    def test_model_changes_key(self, cache, monkeypatch):
        before = key(cache)
        monkeypatch.setattr("repro.sched.cache.model_digest", lambda: "0" * 64)
        assert key(cache) != before


def _package_copy(tmp_path) -> Path:
    """A copy of the imported ``repro`` package under ``tmp_path/src``."""
    src = tmp_path / "src"
    shutil.copytree(
        Path(repro.__file__).parent, src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return src


def _repro(src: Path, *args: str, cwd: Path) -> str:
    """Run a fresh interpreter on the package copy; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return done.stdout


def _edit_model_beta(src: Path) -> None:
    model = src / "repro" / "timing" / "model.py"
    text = model.read_text()
    assert "MODEL_BETA = 0.25" in text
    model.write_text(text.replace("MODEL_BETA = 0.25", "MODEL_BETA = 0.5"))


class TestModelIdentity:
    """A model edit must invalidate what the old model computed."""

    def test_digest_covers_every_source_file(self, tmp_path):
        src = _package_copy(tmp_path)
        code = "from repro.sched.cache import model_digest; print(model_digest())"
        first = _repro(src, "-c", code, cwd=tmp_path)
        assert _repro(src, "-c", code, cwd=tmp_path) == first
        _edit_model_beta(src)
        assert _repro(src, "-c", code, cwd=tmp_path) != first

    def test_warm_sweep_misses_after_a_model_edit(self, tmp_path):
        src = _package_copy(tmp_path)
        sweep = [
            "-m", "repro", "sweep", "MemAlign", "--values", "8192",
            "--max-retries", "2", "--no-journal",
        ]

        def run(name, *extra):
            out, stats = tmp_path / f"{name}.json", tmp_path / f"{name}-stats.json"
            _repro(src, *sweep, *extra, "--out", str(out),
                   "--stats", str(stats), cwd=tmp_path)
            return out.read_bytes(), json.loads(stats.read_text())["cache"]

        cold, _ = run("cold", "--cache-dir", "C")
        warm, stats = run("warm", "--cache-dir", "C")
        assert (warm, stats["hits"], stats["misses"]) == (cold, 1, 0)
        _edit_model_beta(src)
        edited, stats = run("edited", "--cache-dir", "C")
        assert (stats["hits"], stats["misses"]) == (0, 1)
        assert edited != cold
        assert edited == run("fresh", "--no-cache")[0]


class TestStore:
    def test_roundtrip(self, cache):
        payload = {"kind": "run", "result": {"speedup": 2.0}}
        k = key(cache)
        assert cache.get(k) is None
        cache.put(k, payload)
        assert cache.get(k) == payload
        assert cache.stats() == {
            "enabled": True,
            "dir": str(cache._root_path),
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "quarantines": 0,
        }

    def test_float_exact_roundtrip(self, cache):
        payload = {"result": {"t": 0.1 + 0.2, "x": 1e-17}}
        k = key(cache)
        cache.put(k, payload)
        got = cache.get(k)
        assert got["result"]["t"] == payload["result"]["t"]
        assert got["result"]["x"] == payload["result"]["x"]

    def test_disabled_cache_never_hits(self, cache):
        off = ResultCache(cache._root_path, enabled=False)
        k = key(off)
        off.put(k, {"x": 1})
        assert off.get(k) is None
        assert off.stores == 0 and off.misses == 1

    def test_corrupt_entry_is_a_miss(self, cache):
        k = key(cache)
        cache.put(k, {"x": 1})
        cache._path(k).write_text("{ not json")
        assert cache.get(k) is None

    def test_wrong_schema_is_a_miss(self, cache):
        k = key(cache)
        cache._path(k).parent.mkdir(parents=True, exist_ok=True)
        cache._path(k).write_text(json.dumps({"schema": "other/9", "payload": {}}))
        assert cache.get(k) is None

    def test_entry_file_carries_schema_and_key(self, cache):
        k = key(cache)
        cache.put(k, {"x": 1})
        entry = json.loads(cache._path(k).read_text())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["key"] == k
        assert entry["sha256"]


class TestQuarantine:
    def test_torn_entry_quarantined_not_crash(self, cache):
        k = key(cache)
        cache.put(k, {"x": 1})
        path = cache._path(k)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(k) is None
        assert cache.quarantines == 1
        assert not path.exists()
        qdir = cache._root_path / "quarantine"
        assert [p.name for p in qdir.iterdir()] == [path.name]

    def test_checksum_mismatch_quarantined(self, cache):
        k = key(cache)
        cache.put(k, {"x": 1})
        path = cache._path(k)
        entry = json.loads(path.read_text())
        entry["payload"] = {"x": 2}  # bit rot: payload no longer matches
        path.write_text(json.dumps(entry))
        assert cache.get(k) is None
        assert cache.quarantines == 1

    def test_wrong_schema_is_not_quarantined(self, cache):
        # a stale layout version is a plain miss, not corruption
        k = key(cache)
        cache._path(k).parent.mkdir(parents=True, exist_ok=True)
        cache._path(k).write_text(
            json.dumps({"schema": "other/9", "payload": {}})
        )
        assert cache.get(k) is None
        assert cache.quarantines == 0

    def test_recompute_after_quarantine_repopulates(self, cache):
        k = key(cache)
        cache.put(k, {"x": 1})
        cache._path(k).write_text("garbage")
        assert cache.get(k) is None  # quarantined
        cache.put(k, {"x": 1})       # the recompute stores a fresh entry
        assert cache.get(k) == {"x": 1}
        assert cache.stats()["quarantines"] == 1

    def test_pre_checksum_entry_still_readable(self, cache):
        # entries written before the checksum field verify nothing
        k = key(cache)
        cache._path(k).parent.mkdir(parents=True, exist_ok=True)
        cache._path(k).write_text(
            json.dumps({"schema": CACHE_SCHEMA, "key": k, "payload": {"x": 3}})
        )
        assert cache.get(k) == {"x": 3}

    def test_chaos_tears_entries_deterministically(self, cache, tmp_path):
        from repro.faults.plan import FaultPlan

        k = key(cache)
        cache.put(k, {"x": 1})
        chaotic = ResultCache(
            cache._root_path, chaos=FaultPlan(5, cache_corrupt_prob=1.0)
        )
        assert chaotic.get(k) is None
        assert chaotic.quarantines == 1
