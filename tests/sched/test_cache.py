"""Content-addressed result cache: keys, round-trips, accounting."""

import json

import pytest

from repro.arch.presets import CARINA, FORNAX
from repro.core.registry import get_benchmark
from repro.sched.cache import CACHE_SCHEMA, ResultCache, source_fingerprint


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def key(cache, **over):
    base = dict(
        bench_cls=type(get_benchmark("CoMem")),
        system=CARINA,
        kind="sweep",
        params={"n": 64},
        values=[1 << 19],
        backend="reference",
    )
    base.update(over)
    return cache.key_for(**base)


class TestKeying:
    def test_deterministic(self, cache):
        assert key(cache) == key(cache)

    def test_params_change_key(self, cache):
        assert key(cache) != key(cache, params={"n": 128})

    def test_values_change_key(self, cache):
        assert key(cache) != key(cache, values=[1 << 20])

    def test_backend_changes_key(self, cache):
        assert key(cache) != key(cache, backend="jit")

    def test_system_changes_key(self, cache):
        assert key(cache) != key(cache, system=FORNAX)

    def test_benchmark_changes_key(self, cache):
        other = type(get_benchmark("Shmem"))
        assert key(cache) != key(cache, bench_cls=other)

    def test_kind_changes_key(self, cache):
        assert key(cache) != key(cache, kind="run", values=None)

    def test_source_fingerprint_stable(self):
        cls = type(get_benchmark("CoMem"))
        assert source_fingerprint(cls) == source_fingerprint(cls)


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
