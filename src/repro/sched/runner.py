"""Supervised sweep/suite scheduler with incremental caching.

The unit of work is a :class:`JobSpec` — one benchmark comparison
(``kind="run"``) or one ``repro check`` unit (``kind="check"``: one
claim file verified on one backend).  :func:`run_jobs` is the engine of
:mod:`repro.resilience.fleet`: it resolves each job against the run
journal (``--resume``) and the :class:`~repro.sched.cache.ResultCache`
first, then runs the misses in-process or on supervised local worker
processes — per-attempt wall-clock timeouts, crash isolation, bounded
retries with backoff + jitter, poisoned-job quarantine, and a journal
checkpoint after every completed job.  Results come back as the
JSON-ready payloads the result types round-trip through, so a journal
replay, a cached replay, and a fresh computation are byte-for-byte
interchangeable.

:func:`parallel_sweep` and :func:`parallel_suite` are the two shapes
the CLI uses: a figure sweep decomposes into one ``run`` job per point
(:func:`sweep_specs`, the figure's own
:meth:`~repro.core.base.Microbenchmark.sweep_points`), rebuilt by the
same :meth:`~repro.core.base.Microbenchmark.sweep_result` the serial
sweep uses, and Table I decomposes into one job per benchmark.  A
figure point and the equal ``run`` are therefore one job, with one
journal fingerprint and one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.arch.presets import get_system
from repro.common.errors import ReproError
from repro.core.base import BenchResult, SweepResult
from repro.core.registry import ALL_BENCHMARKS, get_benchmark
from repro.core.suite import SuiteReport
from repro.exec.dispatch import current_backend_name, use_backend
from repro.resilience.fleet import run_jobs
from repro.sched.cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import ResilienceConfig

__all__ = [
    "JobSpec",
    "execute_job",
    "run_jobs",
    "sweep_specs",
    "parallel_sweep",
    "parallel_suite",
]


@dataclass(frozen=True)
class JobSpec:
    """One self-contained, picklable unit of benchmark work.

    A ``check`` job carries its claim file's text, the backend it
    verifies and ``quick`` in ``params``; its ``backend`` is None, as
    the unit has no reference backend to fall back to.
    """

    benchmark: str
    kind: str = "run"                    #: "run" or "check"
    params: dict[str, Any] = field(default_factory=dict)
    system: str | None = None            #: preset name; None = paper default
    backend: str | None = "reference"

    def __post_init__(self) -> None:
        if self.kind not in ("run", "check"):
            raise ReproError(f"unknown job kind {self.kind!r}")


def _resolve(spec: JobSpec):
    system = get_system(spec.system) if spec.system else None
    return get_benchmark(spec.benchmark, system)


def execute_job(spec: JobSpec) -> dict[str, Any]:
    """Run one job and return its JSON-ready payload."""
    if spec.kind == "check":
        from repro.check import check_benchmark, parse_claims

        p = spec.params
        outcomes = check_benchmark(
            parse_claims(p["claims"], path=f"{spec.benchmark} claims"),
            backend=p["backend"], quick=p["quick"], system=spec.system,
        )
        return {"kind": "check", "outcomes": [o.as_dict() for o in outcomes]}
    bench = _resolve(spec)
    with use_backend(spec.backend):
        result = bench.run(**spec.params)
    return {"kind": "run", "result": result.as_dict()}


def sweep_specs(
    benchmark: str,
    values: Sequence[Any] | None = None,
    *,
    params: dict[str, Any] | None = None,
    system: str | None = None,
    backend: str | None = None,
) -> list[JobSpec]:
    """A figure sweep as one ``run`` job per point, in x order."""
    resolved = current_backend_name(backend)
    points = get_benchmark(benchmark).sweep_points(values, params or {})
    return [
        JobSpec(benchmark=benchmark, params=p, system=system, backend=resolved)
        for p in points
    ]


def parallel_sweep(
    benchmark: str,
    values: Sequence[Any] | None = None,
    *,
    params: dict[str, Any] | None = None,
    system: str | None = None,
    backend: str | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    config: "ResilienceConfig | None" = None,
) -> SweepResult:
    """A figure sweep through the scheduler: :func:`sweep_specs`, then
    the benchmark's :meth:`~repro.core.base.Microbenchmark.sweep_result`
    over the replayed results — byte-for-byte
    ``bench.sweep(values, **params)``, since ``BenchResult`` documents
    round-trip their floats exactly."""
    specs = sweep_specs(
        benchmark, values, params=params, system=system, backend=backend
    )
    payloads = run_jobs(specs, jobs=jobs, cache=cache, config=config)
    return _resolve(specs[0]).sweep_result(
        [s.params for s in specs],
        [BenchResult.from_dict(p["result"]) for p in payloads],
    )


def parallel_suite(
    overrides: dict[str, dict[str, Any]] | None = None,
    *,
    system: str | None = None,
    backend: str | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    config: "ResilienceConfig | None" = None,
) -> SuiteReport:
    """Table I as one job per benchmark (the ``table1 --jobs`` path)."""
    overrides = overrides or {}
    resolved = current_backend_name(backend)
    specs = [
        JobSpec(
            benchmark=cls.name,
            kind="run",
            params=dict(overrides.get(cls.name, {})),
            system=system,
            backend=resolved,
        )
        for cls in ALL_BENCHMARKS
    ]
    payloads = run_jobs(specs, jobs=jobs, cache=cache, config=config)
    return SuiteReport(
        results=[BenchResult.from_dict(p["result"]) for p in payloads]
    )
