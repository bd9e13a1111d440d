"""Property: stitched traces are well-formed and byte-stable, always.

For any worker count and any seeded chaos flavor, the Chrome trace
stitched from a finished fleet run directory must (a) contain exactly
one root span, (b) contain no span whose ``parent_span_id`` does not
resolve to a span in the same document, and (c) be byte-identical on
re-stitch — kills, stalls, lease corruption, and clock skew may change
who executes what, never what the trace says happened.

And a serial run that is interrupted and ``--resume``\\ d must stitch
a trace byte-identical to the same run finishing in one go: its
in-process worker is named after the run, so both invocations write
one worker's journal and activity, and span ids are minted from the
run id alone.

Examples spawn real worker processes, so the sweep stays small (two
jobs, sub-second lease TTLs, a handful of examples per worker count).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.faults.plan import FaultPlan
from repro.obs import fleet_chrome_trace
from repro.resilience import ResilienceConfig, fleet_dir
from repro.sched import JobSpec, run_jobs

SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 8192}),
    JobSpec(benchmark="MemAlign", params={"n": 16384}),
]

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


def assert_well_formed(trace: dict) -> None:
    """One root span; every parent_span_id resolves in-document."""
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("cat") == "span"]
    roots = [e for e in spans if "parent_span_id" not in e["args"]]
    assert len(roots) == 1, f"expected 1 root span, got {len(roots)}"
    known = {
        e["args"]["span_id"]
        for e in events
        if isinstance(e.get("args"), dict) and "span_id" in e["args"]
    }
    orphans = [
        e["args"]["parent_span_id"]
        for e in events
        if isinstance(e.get("args"), dict)
        and e["args"].get("parent_span_id") not in known | {None}
    ]
    assert not orphans, f"unresolvable parent span ids: {orphans}"


@pytest.mark.parametrize("workers", [1, 2, 4])
class TestFleetTraceProps:
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=7),
        flavor=st.sampled_from(sorted(FLAVORS)),
    )
    def test_stitched_trace_well_formed_and_stable(
        self, workers, tmp_path_factory, seed, flavor
    ):
        tmp_path = tmp_path_factory.mktemp("trace-prop")
        run_id = f"tprop-{workers}-{seed}-{flavor}"
        chaos = FaultPlan(seed, **FLAVORS[flavor]) if FLAVORS[flavor] else None
        cfg = ResilienceConfig(
            run_id=run_id,
            journal_root=tmp_path,
            lease_ttl_s=0.4,
            chaos=chaos,
        )
        run_jobs(SPECS, jobs=workers, config=cfg)
        run_dir = fleet_dir(tmp_path, run_id)
        trace = fleet_chrome_trace(run_dir)
        assert_well_formed(trace)
        # every manifest job got a span; each winner's lane holds its span
        job_spans = [
            e for e in trace["traceEvents"]
            if e.get("cat") == "span" and "job" in e.get("args", {})
        ]
        assert sorted(e["args"]["job"] for e in job_spans) == [0, 1]
        assert all(e["pid"] >= 10 for e in job_spans)
        # byte-identical re-stitch of the same finished run dir
        assert json.dumps(trace) == json.dumps(fleet_chrome_trace(run_dir))


class TestPoolResumeTraceIdentity:
    def test_interrupt_resume_trace_matches_uninterrupted(self, tmp_path, capsys):
        values = "8192,16384"
        base = ["sweep", "MemAlign", "--values", values, "--no-cache"]
        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"
        assert main(
            base + ["--journal-dir", str(straight), "--run-id", "r1"]
        ) == 0
        assert main(
            base + ["--journal-dir", str(resumed), "--run-id", "r1",
                    "--chaos", "interrupt-after=1"]
        ) == 4
        assert main(
            base + ["--journal-dir", str(resumed), "--resume", "r1"]
        ) == 0
        capsys.readouterr()
        a = json.dumps(fleet_chrome_trace(fleet_dir(straight, "r1")))
        b = json.dumps(fleet_chrome_trace(fleet_dir(resumed, "r1")))
        assert a == b
        assert_well_formed(json.loads(a))
        # real device activity, not a synthetic span tree
        assert any(
            e.get("cat") == "kernel" for e in json.loads(a)["traceEvents"]
        )
