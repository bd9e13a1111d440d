"""Journal-directory tools: ``list_runs``, ``gc_runs``, ``attach``.

These back ``repro journal ls/show/gc``; the CLI wrappers are covered
in ``tests/test_cli.py``.  Every run is a run directory.
"""

import json
import os
import time

from repro.resilience import RunJournal, gc_runs, job_fingerprint, list_runs
from repro.resilience.fleet import ensure_manifest, fleet_dir, fleet_status
from repro.resilience.journal import read_log
from repro.resilience.lease import LeaseDir
from repro.sched import JobSpec

SPEC = JobSpec(benchmark="MemAlign", params={"n": 8192})


def _make_run(root, run_id: str, jobs: int = 2) -> None:
    """A finished serial run: its one worker is named after the run."""
    specs = [
        JobSpec(benchmark="MemAlign", params={"n": 8192 * (i + 1)})
        for i in range(jobs)
    ]
    run_dir = fleet_dir(root, run_id)
    ensure_manifest(
        run_dir, specs, run_id=run_id, command="sweep", lease_ttl_s=5.0
    )
    journal = RunJournal.attach(
        run_dir / "journals", run_id=run_id, meta={"command": "sweep"}
    )
    for i, spec in enumerate(specs):
        journal.record(job_fingerprint(spec), {"kind": "run", "result": {"i": i}})
    journal.close()


def _make_fleet_run(root, run_id: str) -> None:
    run_dir = fleet_dir(root, run_id)
    ensure_manifest(
        run_dir, [SPEC], run_id=run_id, command="sweep", lease_ttl_s=5.0
    )
    journal = RunJournal.attach(run_dir / "journals", run_id="w-1", meta={})
    journal.record(job_fingerprint(SPEC), {"kind": "run", "result": {}})
    journal.record("fp-not-in-manifest", {"kind": "run", "result": {}})
    journal.close()


def _backdate(path, days: float) -> None:
    old = time.time() - days * 86400.0
    for p in [path, *path.rglob("*")] if path.is_dir() else [path]:
        os.utime(p, (old, old))


class TestListRuns:
    def test_empty_dir(self, tmp_path):
        assert list_runs(tmp_path) == []
        assert list_runs(tmp_path / "missing") == []

    def test_lists_runs_and_fleets(self, tmp_path):
        _make_run(tmp_path, "r1")
        _make_fleet_run(tmp_path, "f1")
        (tmp_path / "stray.ndjson").write_text("")  # not a run directory
        runs = {e["run_id"]: e for e in list_runs(tmp_path)}
        assert set(runs) == {"r1", "f1"}
        assert (runs["r1"]["jobs"], runs["r1"]["total"]) == (2, 2)
        # only the manifest's jobs count
        assert (runs["f1"]["jobs"], runs["f1"]["total"]) == (1, 1)
        assert all("kind" not in e for e in runs.values())

    def test_sorted_newest_first(self, tmp_path):
        _make_run(tmp_path, "old")
        _backdate(fleet_dir(tmp_path, "old"), 3)
        _make_run(tmp_path, "new")
        assert [e["run_id"] for e in list_runs(tmp_path)] == ["new", "old"]


class TestGcRuns:
    def test_age_based_removal(self, tmp_path):
        _make_run(tmp_path, "old")
        _backdate(fleet_dir(tmp_path, "old"), 10)
        _make_run(tmp_path, "new")
        summary = gc_runs(tmp_path, older_than_days=7)
        assert [e["run_id"] for e in summary["removed"]] == ["old"]
        assert summary["kept"] == 1
        assert not fleet_dir(tmp_path, "old").exists()
        assert fleet_dir(tmp_path, "new").exists()

    def test_dry_run_touches_nothing(self, tmp_path):
        _make_run(tmp_path, "old")
        _backdate(fleet_dir(tmp_path, "old"), 10)
        summary = gc_runs(tmp_path, older_than_days=7, dry_run=True)
        assert summary["dry_run"] is True
        assert [e["run_id"] for e in summary["removed"]] == ["old"]
        assert fleet_dir(tmp_path, "old").exists()

    def test_removes_old_fleet_dirs(self, tmp_path):
        _make_fleet_run(tmp_path, "oldfleet")
        _backdate(fleet_dir(tmp_path, "oldfleet"), 10)
        summary = gc_runs(tmp_path, older_than_days=7)
        assert [e["run_id"] for e in summary["removed"]] == ["oldfleet"]
        assert not fleet_dir(tmp_path, "oldfleet").exists()

    def test_sweeps_stale_leases_of_surviving_fleets(self, tmp_path):
        _make_fleet_run(tmp_path, "f1")
        lease_root = fleet_dir(tmp_path, "f1") / "leases"
        # an expired lease: heartbeat far in the past
        stale_clock = lambda: time.time() - 3600.0  # noqa: E731
        LeaseDir(lease_root, now=stale_clock).acquire("dead0", "w-gone")
        (fleet_dir(tmp_path, "f1") / "journals" / "x.tmp").write_text("")
        summary = gc_runs(tmp_path)
        assert summary["removed"] == []
        assert summary["stale_leases_evicted"] == 1
        assert summary["steal_remnants_removed"] == 1
        assert summary["tmp_files_removed"] >= 1

    def test_keeps_live_leases_of_a_run_with_a_longer_ttl(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "g1")
        ensure_manifest(
            run_dir, [SPEC], run_id="g1", command="sweep", lease_ttl_s=30.0
        )
        now = time.time()
        # a 6 s old heartbeat: stale under the default 5 s, live under 30 s
        LeaseDir(run_dir / "leases", now=lambda: now - 6.0).acquire(
            job_fingerprint(SPEC), "w-1"
        )
        (run_dir / "journals").mkdir()
        (run_dir / "journals" / "w-1.ndjson").write_text(
            json.dumps({"schema": "repro-journal/1", "run_id": "w-1"}) + "\n"
            + json.dumps({"event": "heartbeat", "t": now - 6.0}) + "\n"
        )
        assert gc_runs(tmp_path)["stale_leases_evicted"] == 0
        status = fleet_status(run_dir, now=now)
        assert [w["state"] for w in status["workers"]] == ["live"]
        assert [lease["stale"] for lease in status["active_leases"]] == [False]

    def test_no_cutoff_keeps_everything(self, tmp_path):
        _make_run(tmp_path, "old")
        _backdate(fleet_dir(tmp_path, "old"), 100)
        summary = gc_runs(tmp_path)
        assert summary["removed"] == []
        assert summary["kept"] == 1


class TestAttach:
    def test_attach_creates_then_resumes(self, tmp_path):
        j1 = RunJournal.attach(tmp_path, run_id="w1", meta={"command": "x"})
        j1.record("fp00", {"kind": "run", "result": {}})
        j1.close()
        j2 = RunJournal.attach(tmp_path, run_id="w1")
        assert "fp00" in j2.completed
        j2.record("fp01", {"kind": "run", "result": {}})
        j2.close()
        assert set(read_log(tmp_path / "w1.ndjson").completions) == {
            "fp00", "fp01",
        }
