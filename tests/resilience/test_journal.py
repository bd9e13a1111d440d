"""The append-only NDJSON run journal and job fingerprints."""

import json

import pytest

from repro.__main__ import _make_config, build_parser
from repro.common.errors import ReproError
from repro.resilience import JOURNAL_SCHEMA, RunJournal, job_fingerprint, new_run_id
from repro.sched import JobSpec


def make_config(journal_dir, *flags):
    """The supervision config ``repro sweep`` builds from ``flags``."""
    args = build_parser().parse_args(
        ["sweep", "MemAlign", "--journal-dir", str(journal_dir), *flags]
    )
    return _make_config(args, command="sweep")


class TestLifecycle:
    def test_create_writes_header(self, tmp_path):
        with RunJournal.attach(tmp_path, run_id="r1", meta={"command": "sweep"}) as j:
            assert j.run_id == "r1"
        header = json.loads((tmp_path / "r1.ndjson").read_text().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["run_id"] == "r1"
        assert header["command"] == "sweep"

    def test_create_refuses_existing_run_id(self, tmp_path):
        # the refusal is the CLI's, made before any journal opens
        make_config(tmp_path, "--run-id", "r1")
        (tmp_path / "r1.fleet").mkdir()
        with pytest.raises(ReproError, match="--resume r1"):
            make_config(tmp_path, "--run-id", "r1")

    def test_record_and_resume(self, tmp_path):
        with RunJournal.attach(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1.5}, meta={"benchmark": "Shmem"})
            j.record("fp-b", {"x": 2.5})
        resumed = RunJournal.attach(tmp_path, run_id="r1")
        assert len(resumed) == 2
        assert resumed.completed["fp-a"] == {"x": 1.5}
        assert resumed.completed["fp-b"] == {"x": 2.5}
        resumed.close()
        # reopening appends records, never a second header
        lines = (tmp_path / "r1.ndjson").read_text().splitlines()
        assert sum("schema" in json.loads(line) for line in lines) == 1

    def test_resume_missing_run_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="no journal"):
            make_config(tmp_path, "--resume", "nope")

    def test_resume_wrong_schema_rejected(self, tmp_path):
        (tmp_path / "r1.ndjson").write_text(
            json.dumps({"schema": "other/9", "run_id": "r1"}) + "\n"
        )
        with pytest.raises(ReproError, match="schema"):
            RunJournal.attach(tmp_path, run_id="r1")

    def test_attach_to_an_empty_journal_writes_its_header(self, tmp_path):
        # a kill between creating the file and appending the header
        # leaves it empty: the journal is new
        (tmp_path / "r1.ndjson").write_text("")
        with RunJournal.attach(tmp_path, run_id="r1", meta={"command": "x"}) as j:
            j.record("fp-a", {"x": 1.5})
        header, records = RunJournal._load(tmp_path / "r1.ndjson")
        assert (header["schema"], header["command"]) == (JOURNAL_SCHEMA, "x")
        assert set(records) == {"fp-a"}

    def test_job_records_without_a_header_rejected(self, tmp_path):
        (tmp_path / "r1.ndjson").write_text(
            json.dumps({"job": "fp-a", "payload": {}}) + "\n"
        )
        with pytest.raises(ReproError, match="schema None"):
            RunJournal.attach(tmp_path, run_id="r1")

    def test_unwritable_dir_is_repro_error(self, tmp_path):
        blocker = tmp_path / "journal"
        blocker.write_text("not a directory")
        with pytest.raises(ReproError, match="not writable"):
            RunJournal.attach(blocker, run_id="r1")

    def test_new_run_ids_unique(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64


class TestTornTail:
    def test_torn_final_line_tolerated(self, tmp_path):
        with RunJournal.attach(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1})
        path = tmp_path / "r1.ndjson"
        with path.open("a") as fh:
            fh.write('{"job": "fp-b", "payl')  # killed mid-append
        resumed = RunJournal.attach(tmp_path, run_id="r1")
        assert set(resumed.completed) == {"fp-a"}
        # the reopened journal still appends cleanly after the torn tail
        resumed.record("fp-c", {"x": 3})
        resumed.close()
        again = RunJournal.attach(tmp_path, run_id="r1")
        assert set(again.completed) == {"fp-a", "fp-c"}
        again.close()

    def test_garbage_lines_skipped(self, tmp_path):
        with RunJournal.attach(tmp_path, run_id="r1") as j:
            j.record("fp-a", {"x": 1})
        path = tmp_path / "r1.ndjson"
        text = path.read_text().splitlines()
        text.insert(1, "not json at all")
        path.write_text("\n".join(text) + "\n")
        resumed = RunJournal.attach(tmp_path, run_id="r1")
        assert set(resumed.completed) == {"fp-a"}
        resumed.close()

    def test_float_payloads_roundtrip_exactly(self, tmp_path):
        payload = {"t": 0.1 + 0.2, "x": 1e-17}
        with RunJournal.attach(tmp_path, run_id="r1") as j:
            j.record("fp", payload)
        resumed = RunJournal.attach(tmp_path, run_id="r1")
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
