"""Scheduler differential: parallel and cached runs replay the serial result.

The sweep scheduler decomposes a figure sweep into one job per x-value
and Table I into one job per benchmark; both must reproduce the serial
documents exactly — including through a worker pool and through a warm
content-addressed cache.
"""

import json

import pytest

from repro.core.registry import get_benchmark
from repro.sched import JobSpec, ResultCache, parallel_suite, parallel_sweep, run_jobs

SWEEP_VALUES = [1 << 19, 1 << 20]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestSweepEquivalence:
    def test_parallel_sweep_matches_serial(self):
        serial = get_benchmark("CoMem").sweep(SWEEP_VALUES)
        par = parallel_sweep("CoMem", SWEEP_VALUES, jobs=2)
        assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
            par.as_dict(), sort_keys=True
        )

    def test_warm_cache_replays_byte_identically(self, cache):
        cold = parallel_sweep("CoMem", SWEEP_VALUES, jobs=2, cache=cache)
        assert cache.hits == 0 and cache.misses == len(SWEEP_VALUES)
        warm = parallel_sweep("CoMem", SWEEP_VALUES, jobs=2, cache=cache)
        assert cache.hits == len(SWEEP_VALUES)
        assert json.dumps(cold.as_dict()) == json.dumps(warm.as_dict())

    def test_backends_cache_separately(self, cache):
        spec_ref = JobSpec(benchmark="CoMem", kind="sweep", values=(1 << 19,))
        spec_jit = JobSpec(
            benchmark="CoMem", kind="sweep", values=(1 << 19,), backend="jit"
        )
        run_jobs([spec_ref], cache=cache)
        run_jobs([spec_jit], cache=cache)
        assert cache.hits == 0 and cache.stores == 2


class TestSuiteEquivalence:
    # two representative benchmarks through the run-job path is enough
    # here; the full 14x3 matrix lives in test_backend_equivalence.py
    def test_run_jobs_match_direct_runs(self):
        specs = [
            JobSpec(benchmark="Shmem", params=dict(n=64)),
            JobSpec(benchmark="MiniTransfer", params=dict(n=256, nnz=1024)),
        ]
        payloads = run_jobs(specs, jobs=2)
        direct = [
            get_benchmark("Shmem").run(n=64).as_dict(),
            get_benchmark("MiniTransfer").run(n=256, nnz=1024).as_dict(),
        ]
        assert [p["result"] for p in payloads] == direct

    def test_parallel_suite_runs_all_fourteen(self, cache):
        overrides = {
            "WarpDivRedux": dict(n=1 << 16),
            "DynParallel": dict(size=128, max_dwell=64),
            "Conkernels": dict(rounds=16),
            "TaskGraph": dict(chain_len=4, iterations=5, n=2048),
            "Shmem": dict(n=64),
            "CoMem": dict(n=1 << 19),
            "MemAlign": dict(n=1 << 18),
            "GSOverlap": dict(n=1 << 18),
            "Shuffle": dict(n=1 << 18),
            "BankRedux": dict(n=1 << 16),
            "HDOverlap": dict(n=1 << 18),
            "ReadOnlyMem": dict(n=256),
            "UniMem": dict(n=1 << 20, stride=1 << 14),
            "MiniTransfer": dict(n=256, nnz=1024),
        }
        report = parallel_suite(overrides, jobs=2, cache=cache)
        assert len(report.results) == 14
        assert all(r.verified for r in report.results)
        assert cache.stores == 14
        # warm rerun is pure cache replay
        again = parallel_suite(overrides, jobs=2, cache=cache)
        assert cache.hits == 14
        assert [r.as_dict() for r in again.results] == [
            r.as_dict() for r in report.results
        ]
