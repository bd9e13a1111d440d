"""fleet_status / render_fleet_status: the read-only repro top view."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs import fleet_status, render_fleet_status
from repro.resilience.lease import LeaseDir

NOW = 1_000_000.0


def event(name, t):
    return json.dumps({"event": name, "t": t})


def completion(fp):
    return json.dumps({"job": fp, "payload": {}})


@pytest.fixture()
def run_dir(tmp_path):
    """Synthetic in-flight fleet: w0 done, w1 live, w2 stale."""
    d = tmp_path / "r1.fleet"
    (d / "journals").mkdir(parents=True)
    (d / "manifest.json").write_text(json.dumps({
        "run_id": "r1", "command": "sweep",
        "jobs": ["fp0", "fp1", "fp2", "fp3"],
    }))
    header = json.dumps({"schema": "repro-journal/1", "run_id": "r1"})
    (d / "journals" / "w0.ndjson").write_text("\n".join([
        header,
        event("lease-acquire", NOW - 30),
        completion("fp0"),
        event("heartbeat", NOW - 29),
        completion("fp1"),
        event("worker-exit", NOW - 28),
    ]) + "\n")
    (d / "journals" / "w1.ndjson").write_text("\n".join([
        header,
        event("lease-acquire", NOW - 3),
        event("lease-steal", NOW - 2),
        completion("fp2"),
        event("heartbeat", NOW - 1),
    ]) + "\n")
    (d / "journals" / "w2.ndjson").write_text("\n".join([
        header,
        event("lease-acquire", NOW - 120),
    ]) + "\n")
    return d


class TestFleetStatus:
    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no fleet run directory"):
            fleet_status(tmp_path / "ghost.fleet")

    def test_progress_counts(self, run_dir):
        status = fleet_status(run_dir, now=NOW)
        assert status["run_id"] == "r1"
        assert status["jobs_total"] == 4
        assert status["jobs_completed"] == 3
        assert status["jobs_remaining"] == 1

    def test_worker_health_states(self, run_dir):
        status = fleet_status(run_dir, now=NOW)
        states = {w["worker"]: w["state"] for w in status["workers"]}
        assert states == {"w0": "done", "w1": "live", "w2": "stale"}

    def test_event_counters_aggregated(self, run_dir):
        status = fleet_status(run_dir, now=NOW)
        assert status["leases_acquired"] == 3
        assert status["leases_stolen"] == 1
        assert status["heartbeats"] == 2

    def test_errors_count_every_failure_class(self, run_dir):
        with (run_dir / "journals" / "w1.ndjson").open("a") as fh:
            for name in (
                "timeout", "worker-crash", "job-error", "retry",
            ):
                fh.write(event(name, NOW - 1) + "\n")
        status = fleet_status(run_dir, now=NOW)
        w1 = next(w for w in status["workers"] if w["worker"] == "w1")
        assert (w1["errors"], w1["retries"]) == (3, 1)
        row = next(
            line for line in render_fleet_status(status).splitlines()
            if line.strip().startswith("w1")
        )
        # ... RETRY ERR  <n>s ago
        assert row.split()[-4:-2] == ["1", "3"]

    def test_eta_from_completion_rate(self, run_dir):
        # 3 jobs in 120s of observed history -> 1 remaining ~= 40s out
        status = fleet_status(run_dir, now=NOW)
        assert status["eta_s"] == pytest.approx(40.0, rel=0.01)

    def test_corrupt_lease_surfaced_not_fatal(self, run_dir):
        (run_dir / "leases").mkdir()
        (run_dir / "leases" / "fp0.lease").write_text("not json {{")
        status = fleet_status(run_dir, now=NOW)
        assert status["active_leases"] == [{
            "job": "fp0", "owner": "<corrupt>", "epoch": None,
            "age_s": None, "stale": True,
        }]

    def test_quarantine_and_flight_counted(self, run_dir):
        (run_dir / "quarantine").mkdir()
        (run_dir / "quarantine" / "fp3.json").write_text("{}")
        (run_dir / "flightrec").mkdir()
        (run_dir / "flightrec" / "w2-crash.json").write_text("{}")
        (run_dir / "flightrec" / ".w2-crash.tmp").write_text("")
        status = fleet_status(run_dir, now=NOW)
        assert status["quarantined"] == 1
        assert status["flight_dumps"] == 1
        # quarantined jobs no longer count as remaining
        assert status["jobs_remaining"] == 0

    def test_read_only(self, run_dir):
        before = sorted(p for p in run_dir.rglob("*") if p.is_file())
        mtimes = [p.stat().st_mtime_ns for p in before]
        fleet_status(run_dir, now=NOW)
        after = sorted(p for p in run_dir.rglob("*") if p.is_file())
        assert after == before
        assert [p.stat().st_mtime_ns for p in after] == mtimes


class TestRender:
    def test_screen_contents(self, run_dir):
        status = fleet_status(run_dir, now=NOW)
        screen = render_fleet_status(status)
        assert "fleet r1" in screen
        assert "3/4 jobs (75%)" in screen
        assert "w0" in screen and "stale" in screen and "done" in screen
        assert "3 acquired, 1 stolen, 2 heartbeats" in screen

    def test_expired_lease_has_no_age(self, run_dir):
        # the coordinator expired a dead owner's lease (heartbeat_at 0)
        leases = LeaseDir(run_dir / "leases", ttl_s=5.0, now=lambda: NOW)
        leases.expire(leases.acquire("fp3", "w2"))
        status = fleet_status(run_dir, now=NOW)
        [lease] = status["active_leases"]
        assert (lease["owner"], lease["age_s"], lease["stale"]) == ("w2", None, True)
        [row] = [line for line in render_fleet_status(status).splitlines()
                 if line.strip().startswith("fp3")]
        assert row.split()[-2:] == ["-", "STALE"]

    def test_empty_run_renders(self, tmp_path):
        d = tmp_path / "empty.fleet"
        d.mkdir()
        screen = render_fleet_status(fleet_status(d, now=NOW))
        assert "0/0 jobs" in screen
