"""Job specs and the cache-first scheduler loop (serial paths)."""

import pytest

from repro.common.errors import ReproError
from repro.sched import JobSpec, ResultCache, execute_job, parallel_sweep, run_jobs


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestJobSpec:
    def test_run_default(self):
        spec = JobSpec(benchmark="Shmem")
        assert spec.kind == "run" and spec.backend == "reference"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            JobSpec(benchmark="Shmem", kind="profile")

    def test_sweep_needs_values(self):
        with pytest.raises(ReproError):
            JobSpec(benchmark="Shmem", kind="sweep")


class TestExecuteJob:
    def test_run_payload(self):
        payload = execute_job(JobSpec(benchmark="Shmem", params=dict(n=64)))
        assert payload["kind"] == "run"
        assert payload["result"]["benchmark"] == "Shmem"
        assert payload["result"]["verified"] is True

    def test_backend_applied(self):
        ref = execute_job(JobSpec(benchmark="Shmem", params=dict(n=64)))
        jit = execute_job(
            JobSpec(benchmark="Shmem", params=dict(n=64), backend="jit")
        )
        assert ref["result"] == jit["result"]


class TestRunJobs:
    def test_order_preserved_with_cache_hits(self, cache):
        specs = [
            JobSpec(benchmark="Shmem", params=dict(n=64)),
            JobSpec(benchmark="Shmem", params=dict(n=128)),
        ]
        first = run_jobs(specs, cache=cache)
        assert cache.misses == 2 and cache.stores == 2
        # warm up only the second job's entry being present already
        second = run_jobs(list(reversed(specs)), cache=cache)
        assert cache.hits == 2
        assert second == list(reversed(first))

    def test_no_cache_recomputes(self):
        specs = [JobSpec(benchmark="Shmem", params=dict(n=64))]
        assert run_jobs(specs) == run_jobs(specs)


class TestParallelSweepValidation:
    def test_serial_merge_matches_sweep(self):
        serial = get_sweep()
        merged = parallel_sweep("Shmem", [64, 128])
        assert merged.as_dict() == serial.as_dict()
        assert merged.title == serial.title


def get_sweep():
    from repro.core.registry import get_benchmark

    return get_benchmark("Shmem").sweep([64, 128])
