"""Property: fleet results are byte-identical to serial, always.

For any worker count and any seeded chaos flavor, the merged payload
list must equal ``json.dumps`` of a serial ``run_jobs`` — worker
deaths, heartbeat stalls, lease corruption, and clock-skewed steals
may change *how much work happens*, never *what comes out*.

Examples spawn real worker processes, so the sweep is kept small: two
jobs, sub-second lease TTLs, and a handful of examples per worker
count (the CI profile derandomizes them).
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.resilience import ResilienceConfig
from repro.sched import JobSpec, run_jobs

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 8192}),
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
]

#: chaos flavors: kwargs for FaultPlan beyond the seed.  Faults are
#: armed only for epoch 0, so every steal/retry path terminates.
FLAVORS = {
    "none": {},
    "kill": {"fleet_kill_prob": 1.0, "sched_fault_attempts": 1},
    "stall": {"heartbeat_stall_prob": 1.0, "sched_fault_attempts": 1},
    "corrupt": {"lease_corrupt_prob": 1.0, "sched_fault_attempts": 1},
    "skew": {
        "heartbeat_stall_prob": 1.0,
        "lease_skew_s": 30.0,
        "sched_fault_attempts": 1,
    },
}


@functools.lru_cache(maxsize=1)
def expected_bytes() -> str:
    return json.dumps(run_jobs(SPECS))


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestFleetByteIdentity:
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=7),
        flavor=st.sampled_from(sorted(FLAVORS)),
    )
    def test_matches_serial(self, workers, tmp_path_factory, seed, flavor):
        tmp_path = tmp_path_factory.mktemp("fleet-prop")
        chaos = FaultPlan(seed, **FLAVORS[flavor]) if FLAVORS[flavor] else None
        cfg = ResilienceConfig(
            run_id=f"prop-{workers}-{seed}-{flavor}",
            journal_root=tmp_path,
            lease_ttl_s=0.4,
            chaos=chaos,
        )
        payloads = run_jobs(SPECS, jobs=workers, config=cfg)
        assert json.dumps(payloads) == expected_bytes()
        assert cfg.telemetry.completed == len(SPECS)
