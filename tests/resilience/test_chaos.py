"""The --chaos grammar and the scheduler-layer FaultPlan extensions."""

import pytest

from repro.common.errors import ReproError
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.resilience import parse_chaos


class TestParseChaos:
    def test_full_spec(self):
        plan = parse_chaos(
            "seed=7,crash=0.4,hang=0.2,cache=0.5,"
            "max-fault-attempts=2,interrupt-after=1,diverge=0;2"
        )
        assert plan.seed == 7
        assert plan.worker_crash_prob == 0.4
        assert plan.worker_hang_prob == 0.2
        assert plan.cache_corrupt_prob == 0.5
        assert plan.sched_fault_attempts == 2
        assert plan.interrupt_after_jobs == 1
        assert plan.divergence_jobs == (0, 2)

    def test_defaults(self):
        plan = parse_chaos("seed=3")
        assert plan.worker_crash_prob == 0.0
        assert plan.divergence_jobs == ()
        assert plan.sched_fault_attempts is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError, match="unknown"):
            parse_chaos("seed=1,explode=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(ReproError):
            parse_chaos("crash=lots")

    def test_bad_item_rejected(self):
        with pytest.raises(ReproError):
            parse_chaos("seed")

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ReproError):
            parse_chaos("crash=1.5")


class TestSchedFaultDecisions:
    def test_keyed_decisions_are_order_independent(self):
        a = FaultPlan(9, worker_crash_prob=0.5)
        b = FaultPlan(9, worker_crash_prob=0.5)
        order_a = [a.worker_outcome(i, 0) for i in range(8)]
        order_b = [b.worker_outcome(i, 0) for i in reversed(range(8))]
        assert order_a == list(reversed(order_b))

    def test_crash_and_hang_partition(self):
        plan = FaultPlan(3, worker_crash_prob=0.5, worker_hang_prob=0.5)
        outcomes = {plan.worker_outcome(i, 0) for i in range(16)}
        assert outcomes <= {"crash", "hang"}
        assert len(outcomes) == 2  # both fire at these odds

    def test_crash_plus_hang_over_one_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(0, worker_crash_prob=0.7, worker_hang_prob=0.7)

    def test_fault_attempts_bound_disarms_retries(self):
        plan = FaultPlan(1, worker_crash_prob=1.0, sched_fault_attempts=1)
        assert plan.worker_outcome(0, 0) == "crash"
        assert plan.worker_outcome(0, 1) == "ok"

    def test_divergence_jobs(self):
        plan = FaultPlan(0, divergence_jobs=(1, 3))
        assert [plan.job_diverges(i) for i in range(4)] == [
            False, True, False, True,
        ]

    def test_interrupts_after(self):
        plan = FaultPlan(0, interrupt_after_jobs=2)
        assert not plan.interrupts_after(1)
        assert plan.interrupts_after(2)
        assert plan.interrupts_after(3)
        assert not FaultPlan(0).interrupts_after(100)

    def test_interrupt_after_zero_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(0, interrupt_after_jobs=0)

    def test_retry_jitter_uniform_and_deterministic(self):
        plan = FaultPlan(4)
        draws = [plan.retry_jitter(i, a) for i in range(4) for a in range(2)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert draws == [
            FaultPlan(4).retry_jitter(i, a) for i in range(4) for a in range(2)
        ]

    def test_cache_read_corrupts_keyed_on_read_ordinal(self):
        plan = FaultPlan(5, cache_corrupt_prob=1.0)
        assert plan.cache_read_corrupts(0)
        assert not FaultPlan(5).cache_read_corrupts(0)


class TestRetryPolicyJitter:
    def test_zero_jitter_reproduces_schedule(self):
        policy = RetryPolicy(backoff_s=1e-4, multiplier=2.0)
        assert policy.backoff(0) == pytest.approx(1e-4)
        assert policy.backoff(2) == pytest.approx(4e-4)

    def test_jitter_scales_with_u(self):
        policy = RetryPolicy(backoff_s=1e-4, jitter_frac=0.5)
        assert policy.backoff(0, 0.0) == pytest.approx(1e-4)
        assert policy.backoff(0, 1.0) == pytest.approx(1.5e-4)
        assert policy.backoff(0, 0.5) == pytest.approx(1.25e-4)
