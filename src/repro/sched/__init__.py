"""Supervised sweep scheduling and content-addressed result caching."""

from repro.sched.cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    ResultCache,
    gc_cache,
)
from repro.sched.runner import (
    JobSpec,
    execute_job,
    parallel_suite,
    parallel_sweep,
    run_jobs,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "gc_cache",
    "JobSpec",
    "execute_job",
    "parallel_suite",
    "parallel_sweep",
    "run_jobs",
]
