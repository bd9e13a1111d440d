"""The supervised engine: crash isolation, timeouts, retries, degradation.

Chaos decisions are keyed on (seed, job ordinal, attempt), so every
injected schedule here is deterministic — a probability of 1.0 with
``sched_fault_attempts=1`` means "every job's first attempt fails, the
retry runs clean", which makes recovery behaviour exactly assertable.

``jobs=2`` runs use real local worker processes.  Injected crash and
hang faults are simulated inside them; real deaths and hangs come from
jobs monkeypatched to exit or to sleep with ``SIGALRM`` blocked (forked
workers inherit the patch).  The job timeout of the chaos tests is kept
far above the real job duration (~40 ms for MemAlign n=16384).
"""

import os
import signal
import time

import pytest

from repro.common.errors import BackendDivergenceError
from repro.resilience import (
    JobTimeout,
    QuarantineError,
    ResilienceConfig,
    fleet_dir,
    parse_chaos,
    wall_clock_limit,
)
from repro.sched import JobSpec, ResultCache, run_jobs

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
    JobSpec(benchmark="MemAlign", params={"n": 32768}),
]

#: generous against the ~40 ms real job
TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def clean():
    return run_jobs(SPECS)


def supervised(specs, *, jobs=1, cache=None, **kw):
    config = ResilienceConfig(**kw)
    return run_jobs(specs, jobs=jobs, cache=cache, config=config), config


def journaled(root, run_id):
    """The payloads journaled in a run directory, by fingerprint."""
    from repro.resilience.fleet import scan_completed

    return scan_completed(fleet_dir(root, run_id))


def first_call_only(tmp_path, specs, action):
    """An ``execute_job`` that runs ``action`` on the first call for each
    of ``specs`` in any process (a marker file remembers it), and runs
    every job normally otherwise."""
    import repro.sched.runner as runner

    execute = runner.execute_job

    def job(spec):
        marker = tmp_path / f"seen-{spec.params['n']}"
        if spec in specs and not marker.exists():
            marker.touch()
            action()
        return execute(spec)

    return job


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
        assert config.telemetry.mode == "fleet"

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

    def test_pool_real_crash_fails_only_its_job(
        self, clean, tmp_path, monkeypatch
    ):
        # each job's first attempt hard-exits its worker process: the
        # coordinator charges the death to the job and a replacement
        # steals its lease
        import repro.sched.runner as runner

        monkeypatch.setattr(
            runner, "execute_job",
            first_call_only(tmp_path, SPECS, lambda: os._exit(17)),
        )
        payloads, config = supervised(SPECS, jobs=2)
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
        # a hang fault with no --job-timeout must not deadlock the run:
        # injected hangs are simulated, each charged as a timeout
        payloads, config = supervised(
            SPECS, jobs=2,
            chaos=parse_chaos("seed=2,hang=1.0,max-fault-attempts=1"),
        )
        assert payloads == clean
        assert config.telemetry.timeouts == 2

    def test_serial_job_past_its_budget_times_out(self, monkeypatch):
        # in-process attempts run under the same per-job budget
        import repro.sched.runner as runner

        monkeypatch.setattr(runner, "execute_job", lambda spec: time.sleep(1))
        config = ResilienceConfig(job_timeout_s=0.1, max_retries=0)
        with pytest.raises(QuarantineError):
            run_jobs(SPECS[:1], config=config)
        assert config.telemetry.timeouts == 1

    def test_coordinator_kills_an_attempt_the_alarm_cannot_end(
        self, clean, tmp_path, monkeypatch
    ):
        # a hang that blocks SIGALRM escapes the in-process limit; the
        # coordinator kills its worker and a replacement runs the job
        import repro.sched.runner as runner

        def blocked_hang():
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            time.sleep(60)

        monkeypatch.setattr(
            runner, "execute_job",
            first_call_only(tmp_path, SPECS[:1], blocked_hang),
        )
        timeout = 0.5
        start = time.monotonic()
        payloads, config = supervised(
            SPECS, jobs=2, job_timeout_s=timeout, lease_ttl_s=1.0,
        )
        elapsed = time.monotonic() - start
        assert payloads == clean
        assert config.telemetry.timeouts == 1
        assert config.telemetry.retries == 1
        assert elapsed < 10 * timeout + 5


class TestQuarantine:
    def test_retry_exhaustion_quarantines(self):
        with pytest.raises(QuarantineError, match="quarantined"):
            supervised(
                SPECS, max_retries=1, chaos=parse_chaos("seed=3,crash=1.0")
            )

    def test_other_jobs_complete_before_raise(self, tmp_path, clean):
        # job 0 crashes on every attempt -> quarantine; job 1 must still
        # finish and journal
        config = ResilienceConfig(
            max_retries=1,
            chaos=parse_chaos("seed=3,crash=1.0"),
            run_id="q1", journal_root=tmp_path,
        )
        chaos = config.chaos
        # disarm chaos for job 1 only: crash decisions are per-ordinal,
        # so quarantine job 0 by exhausting it while job 1 runs clean
        orig = chaos.worker_outcome
        chaos.worker_outcome = (
            lambda ordinal, attempt: "ok" if ordinal == 1 else orig(ordinal, attempt)
        )
        with pytest.raises(QuarantineError, match="q1"):
            run_jobs(SPECS, config=config)
        assert config.telemetry.quarantined[0]["job"] == 0
        assert config.telemetry.completed == 1
        assert len(journaled(tmp_path, "q1")) == 1  # job 1's payload survived

    def test_job_killing_every_worker_is_quarantined(
        self, tmp_path, clean, monkeypatch
    ):
        # every worker that runs job 0 hard-exits: each death is charged
        # to the job, and max_retries + 1 deaths quarantine it while job
        # 1 finishes and is journaled
        import repro.sched.runner as runner

        execute = runner.execute_job

        def poisoned(spec):
            if spec == SPECS[0]:
                os._exit(17)
            return execute(spec)

        monkeypatch.setattr(runner, "execute_job", poisoned)
        config = ResilienceConfig(
            max_retries=1, run_id="q2", journal_root=tmp_path,
            lease_ttl_s=1.0,
        )
        with pytest.raises(QuarantineError, match="q2"):
            run_jobs(SPECS, jobs=2, config=config)
        tele = config.telemetry
        assert tele.crashes == 2
        assert [q["job"] for q in tele.quarantined] == [0]
        assert tele.completed == 1
        assert list(journaled(tmp_path, "q2").values())[0][1] == clean[1]


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
    def test_pool_creation_failure_degrades(self, clean, monkeypatch):
        import multiprocessing

        ctx = multiprocessing.get_context()

        def broken_process(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(type(ctx), "Process", broken_process)
        payloads, config = supervised(SPECS, jobs=2)
        assert payloads == clean
        assert config.telemetry.mode == "fleet-fallback"
        assert config.telemetry.degraded
        assert config.telemetry.fallbacks[0]["to"] == "in-process"


class TestJournalIntegration:
    def test_cache_hits_are_journaled(self, tmp_path, clean):
        cache = ResultCache(tmp_path / "cache")
        run_jobs(SPECS, cache=cache)
        payloads, config = supervised(
            SPECS, cache=cache, run_id="r1", journal_root=tmp_path
        )
        assert payloads == clean
        assert cache.hits == 2
        assert len(journaled(tmp_path, "r1")) == 2

    def test_resume_skips_journaled_jobs(self, tmp_path, clean):
        supervised(SPECS[:1], run_id="r1", journal_root=tmp_path)
        payloads, config = supervised(
            SPECS, run_id="r1", journal_root=tmp_path
        )
        assert payloads == clean
        assert config.telemetry.resume_skips == 1
        assert config.telemetry.completed == 1


class TestWallClockLimit:
    def test_block_past_budget_raises(self):
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
