"""The supervised pool: crash isolation, timeouts, retries, degradation.

Chaos decisions are keyed on (seed, job ordinal, attempt), so every
injected schedule here is deterministic — a probability of 1.0 with
``sched_fault_attempts=1`` means "every job's first attempt fails, the
retry runs clean", which makes recovery behaviour exactly assertable.

Pool tests use real worker processes (hard exits, SIGTERM kills); the
job timeout below is kept far above the real job duration (~40 ms for
MemAlign n=16384) so only the *injected* hangs ever trip it.
"""

import pytest

from repro.common.errors import BackendDivergenceError, ReproError
from repro.prof.activity import ActivityHub
from repro.resilience import (
    JobTimeout,
    QuarantineError,
    ResilienceConfig,
    RunJournal,
    parse_chaos,
    run_supervised,
    wall_clock_limit,
)
from repro.sched import JobSpec, ResultCache, run_jobs

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
    JobSpec(benchmark="MemAlign", params={"n": 32768}),
]

#: generous against the ~40 ms real job, tight against the 60 s hang
TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def clean():
    return run_jobs(SPECS)


def supervised(specs, *, jobs=1, cache=None, **kw):
    config = ResilienceConfig(**kw)
    return run_supervised(specs, jobs=jobs, cache=cache, config=config), config


class TestCleanRuns:
    def test_serial_matches_unsupervised(self, clean):
        payloads, config = supervised(SPECS)
        assert payloads == clean
        assert config.telemetry.mode == "serial"
        assert config.telemetry.completed == 2
        assert not config.telemetry.degraded

    def test_pool_matches_serial(self, clean):
        payloads, config = supervised(SPECS, jobs=2)
        assert payloads == clean
        assert config.telemetry.mode == "pool"

    def test_single_job_stays_serial(self, clean):
        payloads, config = supervised(SPECS[:1], jobs=4)
        assert payloads == clean[:1]
        assert config.telemetry.mode == "serial"


class TestCrashIsolation:
    def test_serial_injected_crash_retries(self, clean):
        payloads, config = supervised(
            SPECS, chaos=parse_chaos("seed=3,crash=1.0,max-fault-attempts=1")
        )
        assert payloads == clean
        assert config.telemetry.crashes == 2
        assert config.telemetry.retries == 2

    def test_pool_real_crash_fails_only_its_job(self, clean):
        # every first attempt hard-exits (os._exit) in a real worker
        payloads, config = supervised(
            SPECS, jobs=2,
            chaos=parse_chaos("seed=3,crash=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.crashes == 2
        assert config.telemetry.completed == 2


class TestTimeouts:
    def test_pool_hang_killed_and_retried(self, clean):
        payloads, config = supervised(
            SPECS, jobs=2, job_timeout_s=TIMEOUT_S,
            chaos=parse_chaos("seed=2,hang=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.timeouts == 2
        assert config.telemetry.retries == 2

    def test_hang_chaos_without_timeout_gets_implicit_budget(self, clean):
        # a hang fault with no --job-timeout must not deadlock the run
        payloads, config = supervised(
            SPECS, jobs=2,
            chaos=parse_chaos("seed=2,hang=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.timeouts == 2


class TestPayloadCorruption:
    def test_corrupted_payload_retried(self, clean):
        payloads, config = supervised(
            SPECS, jobs=2,
            chaos=parse_chaos("seed=6,payload=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.payload_faults == 2


class TestQuarantine:
    def test_retry_exhaustion_quarantines(self):
        with pytest.raises(QuarantineError, match="quarantined"):
            supervised(
                SPECS, max_retries=1, chaos=parse_chaos("seed=3,crash=1.0")
            )

    def test_other_jobs_complete_before_raise(self, tmp_path, clean):
        # job 0 diverges forever on the reference backend -> generic
        # error -> quarantine; job 1 must still finish and journal
        config = ResilienceConfig(
            max_retries=1,
            chaos=parse_chaos("seed=3,crash=1.0"),
            journal=RunJournal.create(tmp_path, run_id="q1"),
        )
        chaos = config.chaos
        # disarm chaos for job 1 only: crash decisions are per-ordinal,
        # so quarantine job 0 by exhausting it while job 1 runs clean
        orig = chaos.worker_outcome
        chaos.worker_outcome = (
            lambda ordinal, attempt: "ok" if ordinal == 1 else orig(ordinal, attempt)
        )
        with pytest.raises(QuarantineError, match="q1"):
            run_supervised(SPECS, config=config)
        assert config.telemetry.quarantined[0]["job"] == 0
        assert config.telemetry.completed == 1
        config.journal.close()
        resumed = RunJournal.resume(tmp_path, "q1")
        assert len(resumed) == 1  # job 1's payload survived
        resumed.close()


class TestDivergenceFallback:
    def test_fast_divergence_reruns_on_reference(self, clean):
        specs = [
            JobSpec(benchmark="MemAlign", params={"n": 16384}, backend="jit")
        ]
        payloads, config = supervised(specs, chaos=parse_chaos("diverge=0"))
        assert payloads == clean[:1]
        assert config.telemetry.degraded
        fb = config.telemetry.fallbacks[0]
        assert fb["from"] == "jit" and fb["to"] == "reference"

    def test_reference_divergence_is_a_plain_failure(self, monkeypatch):
        # only a non-reference backend has an oracle to fall back to: the same
        # error from a reference job retries and quarantines instead
        import repro.sched.runner as runner

        def boom(spec):
            raise BackendDivergenceError("oracle disagreed with itself")

        monkeypatch.setattr(runner, "execute_job", boom)
        with pytest.raises(QuarantineError):
            supervised(
                [JobSpec(benchmark="MemAlign", params={"n": 16384})],
                max_retries=0,
            )


class TestSerialFallbackLadder:
    def test_repeated_deaths_degrade_to_serial(self, clean):
        payloads, config = supervised(
            SPECS, jobs=2, serial_fallback_after=1,
            chaos=parse_chaos("seed=7,crash=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.mode == "serial-fallback"
        assert config.telemetry.degraded

    def test_pool_creation_failure_degrades(self, clean, monkeypatch):
        import multiprocessing

        ctx = multiprocessing.get_context()

        def broken_process(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(type(ctx), "Process", broken_process)
        payloads, config = supervised(SPECS, jobs=2)
        assert payloads == clean
        assert config.telemetry.mode == "serial-fallback"


class TestJournalIntegration:
    def test_cache_hits_are_journaled(self, tmp_path, clean):
        cache = ResultCache(tmp_path / "cache")
        run_jobs(SPECS, cache=cache)
        journal = RunJournal.create(tmp_path, run_id="r1")
        payloads, config = supervised(SPECS, cache=cache, journal=journal)
        assert payloads == clean
        assert cache.hits == 2
        assert len(journal.completed) == 2
        journal.close()

    def test_resume_skips_journaled_jobs(self, tmp_path, clean):
        journal = RunJournal.create(tmp_path, run_id="r1")
        supervised(SPECS[:1], journal=journal)
        journal.close()
        resumed = RunJournal.resume(tmp_path, "r1")
        payloads, config = supervised(SPECS, journal=resumed)
        assert payloads == clean
        assert config.telemetry.resume_skips == 1
        assert config.telemetry.completed == 1
        resumed.close()


class TestHealthEvents:
    def test_sched_records_through_hub(self, clean):
        hub = ActivityHub()
        records = []
        hub.subscribe(records.append, kinds=["sched"])
        payloads, config = supervised(
            SPECS, hub=hub,
            chaos=parse_chaos("seed=3,crash=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        names = [r.name for r in records]
        assert "worker-crash" in names and "retry" in names
        crash = next(r for r in records if r.name == "worker-crash")
        assert crash.kind == "sched"
        assert crash.args["benchmark"] == "MemAlign"

    def test_no_subscriber_no_records(self, clean):
        hub = ActivityHub()
        payloads, _ = supervised(SPECS, hub=hub)
        assert payloads == clean  # wants() gate: nothing to assert but no crash


class TestWallClockLimit:
    def test_block_past_budget_raises(self):
        import time

        with pytest.raises(JobTimeout, match="wall clock"):
            with wall_clock_limit(0.05, "unit"):
                time.sleep(1.0)

    def test_fast_block_passes(self):
        with wall_clock_limit(5.0, "unit"):
            x = sum(range(100))
        assert x == 4950

    def test_none_budget_is_noop(self):
        with wall_clock_limit(None):
            pass
