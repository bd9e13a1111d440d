"""Checkpoint/resume: replay + remaining work == uninterrupted run.

The core guarantee: payloads are the JSON-ready dicts the result types
round-trip through, so a journal replay, a cache replay, and a fresh
computation are byte-for-byte interchangeable — an interrupted run
resumed under chaos still produces exactly the bytes of a clean run.
A run resumes by running again under the same run id: its run
directory's journals are replayed.
"""

import functools
import json
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.resilience.fleet import fleet_dir, read_logs
from repro.resilience.journal import job_fingerprint
from repro.resilience.lease import LeaseDir
from repro.sched import JobSpec, run_jobs

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 8192}),
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
    JobSpec(benchmark="MemAlign", params={"n": 32768}),
]


@functools.lru_cache(maxsize=1)
def expected_bytes() -> str:
    return json.dumps(run_jobs(SPECS))


def journaled(root, run_id="r1", **kw) -> ResilienceConfig:
    return ResilienceConfig(run_id=run_id, journal_root=root, **kw)


class TestOwnLease:
    def test_serial_run_takes_over_a_lease_under_its_run_id(self, tmp_path):
        """A serial run killed mid-job leaves a fresh lease under its
        run id, which is its worker's id; the resume takes that lease
        over at once instead of waiting out the 30 s TTL."""
        spec = SPECS[0]
        run_dir = fleet_dir(tmp_path, "r1")
        LeaseDir(run_dir / "leases", ttl_s=30).acquire(
            job_fingerprint(spec), "r1"
        )
        config = journaled(tmp_path, lease_ttl_s=30)
        out = []
        runner = threading.Thread(
            target=lambda: out.append(run_jobs([spec], config=config)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "the run waited on its own lease"
        assert json.dumps(out[0]) == json.dumps(run_jobs([spec]))
        steals = [
            e for e in read_logs(run_dir)["r1"].events
            if e["event"] == "lease-steal"
        ]
        assert [e["stolen_from"] for e in steals] == ["r1"]


class TestInterruptResume:
    def test_chaos_interrupt_checkpoints_then_resumes(self, tmp_path):
        config = journaled(tmp_path, chaos=FaultPlan(0, interrupt_after_jobs=1))
        with pytest.raises(KeyboardInterrupt):
            run_jobs(SPECS, config=config)
        assert config.telemetry.completed == 1

        config2 = journaled(tmp_path)
        payloads = run_jobs(SPECS, config=config2)
        assert json.dumps(payloads) == expected_bytes()
        assert config2.telemetry.resume_skips == 1
        assert config2.telemetry.completed == 2

    def test_pool_interrupt_resumes_in_pool_mode(self, tmp_path):
        config = journaled(tmp_path, chaos=FaultPlan(0, interrupt_after_jobs=1))
        with pytest.raises(KeyboardInterrupt):
            run_jobs(SPECS, jobs=2, config=config)
        saved = config.telemetry.completed
        assert saved >= 1

        config2 = journaled(tmp_path)
        payloads = run_jobs(SPECS, jobs=2, config=config2)
        assert json.dumps(payloads) == expected_bytes()
        assert config2.telemetry.resume_skips == saved

    def test_fully_journaled_run_executes_nothing(self, tmp_path):
        run_jobs(SPECS, config=journaled(tmp_path))

        config = journaled(tmp_path)
        payloads = run_jobs(SPECS, config=config)
        assert json.dumps(payloads) == expected_bytes()
        assert config.telemetry.resume_skips == 3
        assert config.telemetry.completed == 0

    def test_code_change_invalidates_fingerprint(self, tmp_path):
        # a journal from different specs replays nothing (params are
        # part of the fingerprint closure)
        run_jobs(
            [JobSpec(benchmark="MemAlign", params={"n": 4096})],
            config=journaled(tmp_path),
        )

        config = journaled(tmp_path)
        run_jobs(SPECS[:1], config=config)
        assert config.telemetry.resume_skips == 0
        assert config.telemetry.completed == 1


class TestReplayProperty:
    @given(
        k=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
        crash=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_replay_plus_remaining_is_byte_identical(self, k, seed, crash):
        """Interrupt after k jobs, resume under crash chaos: the final
        payload list is byte-identical to the uninterrupted run."""
        with tempfile.TemporaryDirectory() as root:
            config = journaled(
                root, "prop", chaos=FaultPlan(seed, interrupt_after_jobs=k)
            )
            with pytest.raises(KeyboardInterrupt):
                run_jobs(SPECS, config=config)

            config2 = journaled(
                root, "prop",
                chaos=FaultPlan(
                    seed,
                    worker_crash_prob=crash,
                    sched_fault_attempts=1,
                ),
            )
            payloads = run_jobs(SPECS, config=config2)
            assert json.dumps(payloads) == expected_bytes()
            assert config2.telemetry.resume_skips == k
