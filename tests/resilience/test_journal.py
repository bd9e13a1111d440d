"""The append-only NDJSON run journal and job fingerprints."""

import json

import pytest

from repro.common.errors import ReproError
from repro.resilience import JOURNAL_SCHEMA, RunJournal, job_fingerprint, new_run_id
from repro.sched import JobSpec


class TestLifecycle:
    def test_create_writes_header(self, tmp_path):
        with RunJournal.create(tmp_path, run_id="r1", meta={"command": "sweep"}) as j:
            assert j.run_id == "r1"
        header = json.loads((tmp_path / "r1.ndjson").read_text().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["run_id"] == "r1"
        assert header["command"] == "sweep"

    def test_create_refuses_existing_run_id(self, tmp_path):
        RunJournal.create(tmp_path, run_id="r1").close()
        with pytest.raises(ReproError, match="--resume r1"):
            RunJournal.create(tmp_path, run_id="r1")

    def test_record_and_resume(self, tmp_path):
        with RunJournal.create(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1.5}, meta={"benchmark": "Shmem"})
            j.record("fp-b", {"x": 2.5})
        resumed = RunJournal.resume(tmp_path, "r1")
        assert len(resumed) == 2
        assert resumed.completed["fp-a"] == {"x": 1.5}
        assert resumed.completed["fp-b"] == {"x": 2.5}
        resumed.close()

    def test_resume_missing_run_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="no journal"):
            RunJournal.resume(tmp_path, "nope")

    def test_resume_wrong_schema_rejected(self, tmp_path):
        (tmp_path / "r1.ndjson").write_text(
            json.dumps({"schema": "other/9", "run_id": "r1"}) + "\n"
        )
        with pytest.raises(ReproError, match="schema"):
            RunJournal.resume(tmp_path, "r1")

    def test_unwritable_dir_is_repro_error(self, tmp_path):
        blocker = tmp_path / "journal"
        blocker.write_text("not a directory")
        with pytest.raises(ReproError, match="not writable"):
            RunJournal.create(blocker, run_id="r1")

    def test_new_run_ids_unique(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64


class TestTornTail:
    def test_torn_final_line_tolerated(self, tmp_path):
        with RunJournal.create(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1})
        path = tmp_path / "r1.ndjson"
        with path.open("a") as fh:
            fh.write('{"job": "fp-b", "payl')  # killed mid-append
        resumed = RunJournal.resume(tmp_path, "r1")
        assert set(resumed.completed) == {"fp-a"}
        # the reopened journal still appends cleanly after the torn tail
        resumed.record("fp-c", {"x": 3})
        resumed.close()
        again = RunJournal.resume(tmp_path, "r1")
        assert set(again.completed) == {"fp-a", "fp-c"}
        again.close()

    def test_garbage_lines_skipped(self, tmp_path):
        with RunJournal.create(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1})
        path = tmp_path / "r1.ndjson"
        text = path.read_text().splitlines()
        text.insert(1, "not json at all")
        path.write_text("\n".join(text) + "\n")
        resumed = RunJournal.resume(tmp_path, "r1")
        assert set(resumed.completed) == {"fp-a"}
        resumed.close()

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        payload = {"t": 0.1 + 0.2, "x": 1e-17}
        with RunJournal.create(tmp_path, run_id="r1") as j:
            j.record("fp", payload)
        resumed = RunJournal.resume(tmp_path, "r1")
        assert resumed.completed["fp"] == payload
        resumed.close()


class TestFingerprint:
    def test_stable_for_same_spec(self):
        spec = JobSpec(benchmark="Shmem", params={"n": 64})
        assert job_fingerprint(spec) == job_fingerprint(spec)

    def test_params_change_fingerprint(self):
        a = JobSpec(benchmark="Shmem", params={"n": 64})
        b = JobSpec(benchmark="Shmem", params={"n": 128})
        assert job_fingerprint(a) != job_fingerprint(b)

    def test_backend_changes_fingerprint(self):
        a = JobSpec(benchmark="Shmem", params={"n": 64})
        b = JobSpec(benchmark="Shmem", params={"n": 64}, backend="jit")
        assert job_fingerprint(a) != job_fingerprint(b)

    def test_differs_from_cache_key(self, tmp_path):
        # domain separation: a journal line can never alias a cache entry
        from repro.sched import ResultCache
        from repro.sched.runner import _cache_key

        spec = JobSpec(benchmark="Shmem", params={"n": 64})
        cache = ResultCache(tmp_path / "cache")
        assert job_fingerprint(spec) != _cache_key(cache, spec)
