"""The multi-process engine: byte-identity, steals, duplicates, merge.

The invariant under test everywhere: the merged payload list is
byte-for-byte the serial ``run_jobs`` result, regardless of worker
count, chaos-injected deaths and stalls, or duplicate completions.
"""

import functools
import json

import pytest

from repro.common.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.resilience import QuarantineError, ResilienceConfig, RunJournal
from repro.resilience.fleet import (
    FleetMergeError,
    _EventLog,
    ensure_manifest,
    fleet_dir,
    fleet_status,
    join_fleet,
    merge_fleet,
    read_events,
    read_manifest,
    run_jobs,
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


def make_cfg(tmp_path, **kw) -> ResilienceConfig:
    kw.setdefault("run_id", "ftest")
    kw.setdefault("journal_root", tmp_path)
    kw.setdefault("lease_ttl_s", 0.5)
    return ResilienceConfig(**kw)


class TestCleanFleet:
    def test_two_workers_match_serial(self, tmp_path):
        cfg = make_cfg(tmp_path)
        payloads = run_jobs(SPECS, jobs=2, config=cfg)
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
        cfg = make_cfg(tmp_path)
        payloads = join_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.resume_skips == 0

    def test_join_of_complete_run_is_pure_merge(self, tmp_path):
        run_jobs(SPECS, jobs=2, config=make_cfg(tmp_path))
        cfg = make_cfg(tmp_path)
        payloads = join_fleet(SPECS, cfg)
        assert json.dumps(payloads) == expected_bytes()
        # nothing left to claim: every job replayed from fleet journals
        assert cfg.telemetry.resume_skips == len(SPECS)

    def test_merge_is_idempotent(self, tmp_path):
        cfg = make_cfg(tmp_path)
        first = run_jobs(SPECS, jobs=2, config=cfg)
        again = merge_fleet(
            fleet_dir(tmp_path, "ftest"), SPECS, cfg=make_cfg(tmp_path)
        )
        assert json.dumps(again) == json.dumps(first)

    def test_merge_populates_and_validates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cfg = make_cfg(tmp_path)
        payloads = run_jobs(SPECS, jobs=2, cache=cache, config=cfg)
        assert cache.stores == len(SPECS)
        # a second merge against the warm cache cross-validates quietly
        again = merge_fleet(
            fleet_dir(tmp_path, "ftest"), SPECS,
            cfg=make_cfg(tmp_path), cache=cache,
        )
        assert json.dumps(again) == json.dumps(payloads)

    def test_every_worker_logs_its_exit(self, tmp_path):
        # a worker idling in its poll when the last job is journaled
        # must log worker-exit before the coordinator stops it, or
        # repro top reads it live (and, past the TTL, stale) forever
        specs = [
            JobSpec(benchmark="MemAlign", params={"n": n})
            for n in (8192, 16384, 32768, 65536)
        ]
        for attempt in range(5):
            cfg = make_cfg(tmp_path, run_id=f"exit{attempt}")
            run_jobs(specs, jobs=2, config=cfg)
            status = fleet_status(fleet_dir(tmp_path, cfg.run_id))
            states = [row["state"] for row in status["workers"]]
            assert states == ["done", "done"], (attempt, status["workers"])


class TestChaosFleet:
    def test_killed_workers_are_stolen_from(self, tmp_path):
        # every epoch-0 claim dies; epoch-1 steals are past the armed
        # window, so the surviving worker finishes everything
        chaos = FaultPlan(3, fleet_kill_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, chaos=chaos)
        payloads = run_jobs(SPECS, jobs=4, config=cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.leases_stolen >= 1

    def test_stalled_heartbeats_cause_validated_duplicates(self, tmp_path):
        chaos = FaultPlan(5, heartbeat_stall_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, chaos=chaos)
        payloads = run_jobs(SPECS, jobs=2, config=cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.leases_stolen >= 1

    def test_worker_dying_without_a_lease_falls_back_in_process(
        self, tmp_path, monkeypatch
    ):
        # local workers die before their first claim, so no job can be
        # charged: the coordinator finishes in-process
        import os

        from repro.resilience.lease import LeaseDir

        coordinator = os.getpid()
        claim = LeaseDir.claim

        def die_in_workers(self, job, owner):
            if os.getpid() != coordinator:
                os._exit(3)
            return claim(self, job, owner)

        monkeypatch.setattr(LeaseDir, "claim", die_in_workers)
        cfg = make_cfg(tmp_path)
        payloads = run_jobs(SPECS, jobs=2, config=cfg)
        assert json.dumps(payloads) == expected_bytes()
        tele = cfg.telemetry
        assert tele.mode == "fleet-fallback"
        assert tele.degraded
        assert tele.fallbacks and tele.fallbacks[0]["from"] == "fleet"

    def test_corrupt_leases_still_merge_identically(self, tmp_path):
        chaos = FaultPlan(11, lease_corrupt_prob=1.0, sched_fault_attempts=1)
        cfg = make_cfg(tmp_path, chaos=chaos)
        payloads = run_jobs(SPECS, jobs=2, config=cfg)
        assert json.dumps(payloads) == expected_bytes()

    def test_poisoned_job_quarantines_the_run(self, tmp_path):
        chaos = FaultPlan(2, worker_crash_prob=1.0)   # every attempt crashes
        cfg = make_cfg(tmp_path, chaos=chaos, max_retries=1)
        with pytest.raises(QuarantineError, match="quarantined"):
            join_fleet(SPECS, cfg)


class TestOneLadder:
    """Every mode climbs the same ladder: one chaos plan run serially,
    on local workers (``pool``: ``--jobs 2``) and as a joining fleet
    worker reports the same telemetry."""

    COUNTERS = ("retries", "timeouts", "crashes", "job_errors")

    @pytest.fixture(scope="class")
    def serial(self):
        return self._run("serial", None)

    @staticmethod
    def _run(mode, tmp_path):
        from dataclasses import replace

        from repro.resilience import parse_chaos

        chaos = parse_chaos(
            "seed=7,crash=0.5,max-fault-attempts=2,diverge=1"
        )
        specs = [replace(s, backend="jit") for s in SPECS]
        if mode == "fleet":
            # one joining worker: deterministic, so no benign duplicates
            cfg = make_cfg(tmp_path, chaos=chaos)
            payloads = join_fleet(specs, cfg)
        else:
            cfg = ResilienceConfig(chaos=chaos)
            payloads = run_jobs(
                specs, jobs=2 if mode == "pool" else 1, config=cfg
            )
        assert json.dumps(payloads) == expected_bytes()
        return cfg.telemetry

    @pytest.mark.parametrize("mode", ["pool", "fleet"])
    def test_same_counters_and_fallbacks_as_serial(
        self, mode, serial, tmp_path
    ):
        tele = self._run(mode, tmp_path)
        assert [getattr(serial, c) for c in self.COUNTERS] == [2, 0, 2, 0]
        assert [getattr(tele, c) for c in self.COUNTERS] == [
            getattr(serial, c) for c in self.COUNTERS
        ]
        assert tele.fallbacks == serial.fallbacks == [{
            "benchmark": "MemAlign", "job": 1, "from": "jit",
            "to": "reference",
            "reason": "injected jit-backend divergence (MemAlign) "
                      "[cudaErrorUnknown]",
        }]
        assert tele.degraded

    def test_merge_keeps_one_fallback_per_job(self, tmp_path):
        # a benign duplicate: two workers both ran job 0 and fell back;
        # w-a also fell back on job 2, before it ran job 0
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="test", lease_ttl_s=5.0
        )
        fps = [job_fingerprint(s) for s in SPECS]
        payloads = {fp: {"kind": "run", "result": {"v": i}}
                    for i, fp in enumerate(fps)}
        for worker, jobs in (("w-a", (2, 0)), ("w-b", (0,))):
            with RunJournal.attach(
                run_dir / "journals", run_id=worker, meta={}
            ) as journal:
                for fp, payload in payloads.items():
                    journal.record(fp, payload)
            log = _EventLog(run_dir / "events" / f"{worker}.ndjson", worker)
            for job in jobs:
                log.emit(
                    "fallback-reference", benchmark="MemAlign", job=job,
                    to="reference", reason="diverged", **{"from": "jit"},
                )
            log.close()
        cfg = make_cfg(tmp_path)
        merge_fleet(run_dir, SPECS, cfg=cfg)
        assert cfg.telemetry.fallbacks == [
            {"benchmark": "MemAlign", "job": job, "from": "jit",
             "to": "reference", "reason": "diverged"}
            for job in (0, 2)
        ]
        assert cfg.telemetry.duplicate_completions == len(SPECS)


class TestQuarantinedTelemetry:
    """A quarantined run still reports the ladder's counters: the merge
    folds every event log before it raises."""

    @pytest.mark.parametrize("mode", ["serial", "join"])
    def test_counters_survive_the_quarantine(self, mode, tmp_path):
        from repro.resilience import parse_chaos

        cfg = make_cfg(
            tmp_path, chaos=parse_chaos("seed=2,crash=1.0"), max_retries=1
        )
        with pytest.raises(QuarantineError):
            if mode == "serial":
                run_jobs(SPECS[1:], config=cfg)
            else:
                join_fleet(SPECS[1:], cfg)
        tele = cfg.telemetry
        assert (tele.retries, tele.crashes, len(tele.quarantined)) == (2, 4, 2)


class TestNoWallClockLimit:
    def test_long_healthy_run_is_not_degraded(self, tmp_path, monkeypatch):
        # the run's own clock jumps past two minutes: only a job's
        # timeout and the ladder bound a run, so it finishes as a fleet
        import time

        real = time.monotonic
        calls = []

        def jumping():
            calls.append(None)
            return real() + (0.0 if len(calls) == 1 else 121.0)

        monkeypatch.setattr(time, "monotonic", jumping)
        cfg = make_cfg(tmp_path)
        payloads = run_jobs(SPECS, jobs=2, config=cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.mode == "fleet"
        assert not cfg.telemetry.degraded


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
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="test", lease_ttl_s=5.0
        )
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
        run_jobs(SPECS, jobs=2, cache=cache, config=make_cfg(tmp_path))
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
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="test", lease_ttl_s=5.0
        )
        with pytest.raises(ReproError, match="incomplete"):
            merge_fleet(run_dir, SPECS, cfg=make_cfg(tmp_path))


class TestManifest:
    def test_mismatched_job_list_fails_loudly(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="test", lease_ttl_s=5.0
        )
        other = [JobSpec(benchmark="MemAlign", params={"n": 1024})]
        with pytest.raises(ReproError, match="different job list"):
            ensure_manifest(
                run_dir, other, run_id="ftest", command="test", lease_ttl_s=5.0
            )

    def test_same_job_list_validates(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        first = ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="t", lease_ttl_s=5.0
        )
        # a joiner with its own TTL validates; the creator's TTL stays
        second = ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="t", lease_ttl_s=30.0
        )
        assert first["jobs"] == second["jobs"]
        assert second["lease_ttl_s"] == 5.0

    def test_resume_republishes_its_lease_ttl(self, tmp_path):
        run_dir = fleet_dir(tmp_path, "ftest")
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="t", lease_ttl_s=5.0
        )
        ensure_manifest(
            run_dir, SPECS, run_id="ftest", command="t", lease_ttl_s=30.0,
            republish=True,
        )
        assert read_manifest(run_dir)["lease_ttl_s"] == 30.0


class TestStaleSnapshot:
    def test_rescans_before_claiming_after_a_job(self, tmp_path, monkeypatch):
        import repro.resilience.fleet as fleet
        import repro.sched.runner as runner

        specs = SPECS[:2]
        cfg = make_cfg(tmp_path, worker_id="w0")
        journals = fleet_dir(tmp_path, cfg.run_id) / "journals"
        execute = runner.execute_job

        def peer_finishes_job_1(spec):
            payload = execute(spec)
            if spec == specs[0]:
                # a peer journals job 1 (and drops its lease) meanwhile
                with RunJournal.attach(journals, run_id="peer") as peer:
                    peer.record(job_fingerprint(specs[1]), {"kind": "run"})
            return payload

        monkeypatch.setattr(runner, "execute_job", peer_finishes_job_1)
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
        assert [ev["event"] for ev in read_events(tmp_path)] == [
            "lease-acquire", "job-complete",
        ]


class TestConfigValidation:
    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ReproError, match="TTL"):
            make_cfg(tmp_path, lease_ttl_s=0.0)
