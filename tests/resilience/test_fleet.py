"""The work-stealing fleet: byte-identity, steals, duplicates, merge.

The invariant under test everywhere: the merged payload list is
byte-for-byte the serial ``run_jobs`` result, regardless of worker
count, chaos-injected deaths and stalls, or duplicate completions.
"""

import functools
import json

import pytest

from repro.common.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.resilience import QuarantineError, RunJournal
from repro.resilience.fleet import (
    FleetConfig,
    FleetMergeError,
    _EventLog,
    _read_events,
    ensure_manifest,
    fleet_dir,
    join_fleet,
    merge_fleet,
    run_fleet,
)
from repro.resilience.journal import job_fingerprint
from repro.sched import JobSpec, run_jobs
from repro.sched.cache import ResultCache

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 8192}),
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
    JobSpec(benchmark="MemAlign", params={"n": 32768}),
]


@functools.lru_cache(maxsize=1)
def expected_bytes() -> str:
    return json.dumps(run_jobs(SPECS))


def make_cfg(tmp_path, **kw) -> FleetConfig:
    kw.setdefault("run_id", "ftest")
    kw.setdefault("journal_root", tmp_path)
    kw.setdefault("lease_ttl_s", 0.5)
    kw.setdefault("heartbeat_s", 0.1)
    kw.setdefault("join_timeout_s", 60.0)
    return FleetConfig(**kw)


class TestCleanFleet:
    def test_two_workers_match_serial(self, tmp_path):
        cfg = make_cfg(tmp_path, workers=2)
        payloads = run_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        tele = cfg.telemetry
        assert tele.mode == "fleet"
        assert tele.completed == len(SPECS)
        # >= not ==: a worker may claim a job a peer completed moments
        # earlier (its resolved-set snapshot was stale), which is a
        # benign, checksum-validated duplicate acquire
        assert tele.leases_acquired >= len(SPECS)
        assert not tele.degraded

    def test_join_single_worker_matches_serial(self, tmp_path):
        cfg = make_cfg(tmp_path, workers=0)
        payloads = join_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.resume_skips == 0

    def test_join_of_complete_run_is_pure_merge(self, tmp_path):
        run_fleet(SPECS, make_cfg(tmp_path, workers=2))
        cfg = make_cfg(tmp_path, workers=0)
        payloads = join_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        # nothing left to claim: every job replayed from fleet journals
        assert cfg.telemetry.resume_skips == len(SPECS)

    def test_merge_is_idempotent(self, tmp_path):
        cfg = make_cfg(tmp_path, workers=2)
        first = run_fleet(SPECS, cfg)
        again = merge_fleet(
            fleet_dir(tmp_path, "ftest"), SPECS, cfg=make_cfg(tmp_path)
        )
        assert json.dumps(again) == json.dumps(first)

    def test_merge_populates_and_validates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cfg = make_cfg(tmp_path, workers=2)
        payloads = run_fleet(SPECS, cfg, cache=cache)
        assert cache.stores == len(SPECS)
        # a second merge against the warm cache cross-validates quietly
        again = merge_fleet(
            fleet_dir(tmp_path, "ftest"), SPECS,
            cfg=make_cfg(tmp_path), cache=cache,
        )
        assert json.dumps(again) == json.dumps(payloads)


class TestChaosFleet:
    def test_killed_workers_are_stolen_from(self, tmp_path):
        # every epoch-0 claim dies; epoch-1 steals are past the armed
        # window, so the surviving worker finishes everything
        chaos = FaultPlan(3, fleet_kill_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, workers=4, chaos=chaos)
        payloads = run_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.leases_stolen >= 1

    def test_stalled_heartbeats_cause_validated_duplicates(self, tmp_path):
        chaos = FaultPlan(5, heartbeat_stall_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, workers=2, chaos=chaos)
        payloads = run_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.leases_stolen >= 1

    def test_all_workers_dead_falls_back_in_process(self, tmp_path):
        # one worker, dies on its first claim, nobody left to steal:
        # the coordinator finishes in-process with lethal chaos off
        chaos = FaultPlan(7, fleet_kill_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, workers=1, chaos=chaos)
        payloads = run_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        tele = cfg.telemetry
        assert tele.mode == "fleet-fallback"
        assert tele.degraded
        assert tele.fallbacks and tele.fallbacks[0]["from"] == "fleet"

    def test_corrupt_leases_still_merge_identically(self, tmp_path):
        chaos = FaultPlan(11, lease_corrupt_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, workers=2, chaos=chaos)
        payloads = run_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()

    def test_poisoned_job_quarantines_the_run(self, tmp_path):
        chaos = FaultPlan(2, worker_crash_prob=1.0)   # every attempt crashes
        cfg = make_cfg(tmp_path, workers=0, chaos=chaos, max_retries=1)
        with pytest.raises(QuarantineError, match="quarantined"):
            join_fleet(SPECS, cfg)


class TestMergeValidation:
    def _publish(self, tmp_path, worker: str, payload_by_fp: dict) -> None:
        run_dir = fleet_dir(tmp_path, "ftest")
        journal = RunJournal.attach(
            run_dir / "journals", run_id=worker, meta={}
        )
        for fp, payload in payload_by_fp.items():
            journal.record(fp, payload)
        journal.close()

    def test_disagreeing_journals_refuse_to_merge(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(run_dir, SPECS, run_id="ftest", command="test")
        fps = [job_fingerprint(s) for s in SPECS]
        good = {fp: {"kind": "run", "result": {"v": i}}
                for i, fp in enumerate(fps)}
        self._publish(tmp_path, "w-a", good)
        evil = dict(good)
        evil[fps[1]] = {"kind": "run", "result": {"v": "tampered"}}
        self._publish(tmp_path, "w-b", evil)
        with pytest.raises(FleetMergeError, match="disagree"):
            merge_fleet(run_dir, SPECS, cfg=make_cfg(tmp_path))

    def test_cache_disagreement_refuses_to_merge(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_fleet(SPECS, make_cfg(tmp_path, workers=2), cache=cache)
        # poison one cache entry behind the fleet's back
        from repro.sched.runner import _cache_key

        key = _cache_key(cache, SPECS[0])
        cache.put(key, {"kind": "run", "result": {"v": "poisoned"}})
        with pytest.raises(FleetMergeError, match="result cache"):
            merge_fleet(
                fleet_dir(tmp_path, "ftest"), SPECS,
                cfg=make_cfg(tmp_path), cache=cache,
            )

    def test_incomplete_run_refuses_to_merge(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(run_dir, SPECS, run_id="ftest", command="test")
        with pytest.raises(ReproError, match="incomplete"):
            merge_fleet(run_dir, SPECS, cfg=make_cfg(tmp_path))


class TestManifest:
    def test_mismatched_job_list_fails_loudly(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(run_dir, SPECS, run_id="ftest", command="test")
        other = [JobSpec(benchmark="MemAlign", params={"n": 1024})]
        with pytest.raises(ReproError, match="different job list"):
            ensure_manifest(run_dir, other, run_id="ftest", command="test")

    def test_same_job_list_validates(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        first = ensure_manifest(run_dir, SPECS, run_id="ftest", command="t")
        second = ensure_manifest(run_dir, SPECS, run_id="ftest", command="t")
        assert first["jobs"] == second["jobs"]


class TestStaleSnapshot:
    def test_rescans_before_claiming_after_a_job(self, tmp_path, monkeypatch):
        import repro.resilience.fleet as fleet

        specs = SPECS[:2]
        cfg = make_cfg(tmp_path, worker_id="w0")
        journals = fleet_dir(tmp_path, cfg.run_id) / "journals"
        execute = fleet._execute_with_retries

        def peer_finishes_job_1(spec, ordinal, *args, **kwargs):
            payload = execute(spec, ordinal, *args, **kwargs)
            if ordinal == 0:
                # a peer journals job 1 (and drops its lease) meanwhile
                with RunJournal.attach(journals, run_id="peer") as peer:
                    peer.record(job_fingerprint(specs[1]), {"kind": "run"})
            return payload

        monkeypatch.setattr(
            fleet, "_execute_with_retries", peer_finishes_job_1
        )
        assert fleet.fleet_worker(specs, cfg) == 1


class TestEventLog:
    def test_rejoined_worker_heals_torn_tail(self, tmp_path):
        # a re-joined worker with a stable --worker-id reopens the event
        # log its killed predecessor tore mid-append
        path = tmp_path / "events" / "w0.ndjson"
        path.parent.mkdir()
        log = _EventLog(path, "w0")
        log.emit("lease-acquire", job=0)
        log.close()
        with path.open("a") as fh:
            fh.write('{"event": "heartbeat", "wor')
        log = _EventLog(path, "w0")
        log.emit("job-complete", job=0)
        log.close()
        assert [ev["event"] for ev in _read_events(tmp_path)] == [
            "lease-acquire", "job-complete",
        ]


class TestConfigValidation:
    def test_heartbeat_must_beat_faster_than_ttl(self, tmp_path):
        with pytest.raises(ReproError, match="heartbeat"):
            make_cfg(tmp_path, heartbeat_s=1.0, lease_ttl_s=0.5)

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError, match="TTL"):
            make_cfg(tmp_path, lease_ttl_s=0.0)
