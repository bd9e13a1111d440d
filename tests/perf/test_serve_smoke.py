"""The serve-hits client loop against a real daemon, 20 requests."""

import json
from pathlib import Path

from benchmarks.perf.workloads import Context, Daemon, Outcome, ServeLoad, child_env

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "spec.json")
    .read_text()
)


def test_closed_loop_requests_hit_the_cache_and_match_golden(tmp_path):
    # the cheapest primed point keeps the one real simulation short
    spec = dict(SPEC, serve_points=[["Conkernels", 8]])
    ctx = Context(tmp_path, seed=7, seconds=0.0, spec=spec, env=child_env(tmp_path))
    out = Outcome()
    load = ServeLoad(ctx, out)
    daemon = Daemon(ctx, "smoke", spans=None)
    try:
        assert daemon.setup_s > 0
        assert load.one(daemon, "priming", ("Conkernels", 8)) is not None
        latencies = [load.one(daemon, "measured") for _ in range(20)]
        assert daemon.vm_hwm_mb() > 0
    finally:
        code = daemon.stop()
    assert code == 0
    assert all(x is not None and x > 0 for x in latencies)
    assert (out.attempted, out.failed) == (21, 0)
    assert load.phases == {
        "priming": {"sent": 1, "succeeded": 1, "failed": 0},
        "measured": {"sent": 20, "succeeded": 20, "failed": 0},
    }
    # every request was its own durable entry
    states = list((tmp_path / "smoke-data" / "requests").glob("*.json"))
    assert len(states) == 21
