"""The conformance engine behind ``repro check``.

Orchestrates one pass over the paper's executable claims: for each
benchmark with a claim file, run the comparison under the profiler,
evaluate the claim spec against the :class:`BenchResult`, run any
figure sweeps the trend claims need, and audit the exported metrics
document against the physical-invariant registry.  ``check_all`` adds
the metamorphic relations and repeats the whole pass per execution
backend, which is how CI asserts both the reference oracle and the
jit backend still reproduce the paper.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.arch.presets import get_system
from repro.check.claims import (
    ClaimSpec,
    evaluate_result_claim,
    evaluate_sweep_claim,
    load_claims_dir,
)
from repro.check.invariants import check_bench_row, check_document
from repro.check.metamorphic import run_relations
from repro.check.report import CheckOutcome, ConformanceReport
from repro.common.errors import ReproError
from repro.core.registry import get_benchmark
from repro.exec import BACKENDS, use_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import ResilienceConfig

__all__ = ["check_benchmark", "check_all"]


def _resolve_backends(backend: str | None) -> tuple[str, ...]:
    """``both`` (the default) means every registered backend."""
    return BACKENDS if backend in (None, "both") else (backend,)


def check_benchmark(
    spec: ClaimSpec,
    *,
    backend: str = "reference",
    quick: bool = False,
    system: str | None = None,
) -> list[CheckOutcome]:
    """Run one benchmark's claim spec under one backend.

    The comparison runs under a profiling session so the same execution
    yields both the claim verdicts (from the :class:`BenchResult`) and
    the invariant audit (from the exported metrics documents).  Trend
    claims run their sweeps afterwards, deduplicated by (values,
    params) so several claims over the same figure share one sweep.
    """
    from repro.prof import collect_metrics, profile_session

    result_claims = spec.result_claims(quick=quick)
    sweep_claims = spec.sweep_claims(quick=quick)
    if not result_claims and not sweep_claims:
        return []

    sysname = system or spec.system
    sys_spec = get_system(sysname) if sysname else None
    outcomes: list[CheckOutcome] = []

    with use_backend(backend):
        bench = get_benchmark(spec.benchmark, sys_spec)
        if result_claims:
            with profile_session() as prof:
                result = bench.run(**dict(spec.run_params))
            row = result.as_dict()
            for claim in result_claims:
                outcomes.append(
                    evaluate_result_claim(
                        claim, row, benchmark=spec.benchmark, backend=backend
                    )
                )
            outcomes.extend(check_bench_row(row, backend=backend))
            for rt in prof.runtimes:
                if not rt.kernel_log:
                    continue
                doc = collect_metrics(rt, benchmark=spec.benchmark)
                outcomes.extend(
                    check_document(
                        doc, subject=spec.benchmark, backend=backend
                    )
                )
        sweeps: dict[tuple, Mapping[str, Any]] = {}
        for claim in sweep_claims:
            key = (claim.values, tuple(sorted(claim.params.items())))
            if key not in sweeps:
                sweep = bench.sweep(list(claim.values), **dict(claim.params))
                sweeps[key] = sweep.as_dict()
            outcomes.append(
                evaluate_sweep_claim(
                    claim,
                    sweeps[key],
                    benchmark=spec.benchmark,
                    backend=backend,
                )
            )
    return outcomes


def check_all(
    *,
    benchmarks: Sequence[str] | None = None,
    claims_dir: str | None = None,
    backend: str | None = None,
    quick: bool = False,
    relations: bool = True,
    system: str | None = None,
    resilience: "ResilienceConfig | None" = None,
) -> ConformanceReport:
    """Run the full conformance pass and return the report.

    ``benchmarks`` restricts the pass to named Table I entries (all
    entries with claim files otherwise); ``backend`` is ``reference``,
    ``jit``, or ``None``/``both`` for the two-backend matrix.
    ``resilience`` runs the (backend × claim file) units as ``check``
    jobs through :func:`~repro.sched.runner.run_jobs`, the engine of
    every supervised run: retries with backoff, per-unit wall-clock
    timeouts, and a run directory whose journal lets an interrupted
    pass resume without re-running completed units.  A unit's job
    carries its claim file's text, so an edited claim file re-runs it.
    """
    specs = load_claims_dir(claims_dir)
    if benchmarks:
        missing = [b for b in benchmarks if b not in specs]
        if missing:
            raise ReproError(
                f"no claim file for: {', '.join(missing)}; have "
                f"{', '.join(sorted(specs))}"
            )
        selected = [specs[b] for b in benchmarks]
    else:
        selected = list(specs.values())

    backends = _resolve_backends(backend)
    report = ConformanceReport(
        title=f"paper-claims conformance ({', '.join(backends)})"
    )
    if resilience is not None:
        from repro.sched.runner import JobSpec, run_jobs

        jobs = [
            JobSpec(
                benchmark=spec.benchmark,
                kind="check",
                params={
                    "claims": Path(spec.path).read_text(),
                    "backend": be,
                    "quick": quick,
                },
                system=system or spec.system,
                backend=None,
            )
            for be in backends
            for spec in selected
        ]
        for payload in run_jobs(jobs, config=resilience):
            report.extend(CheckOutcome.from_dict(d) for d in payload["outcomes"])
    else:
        for be in backends:
            for spec in selected:
                report.extend(
                    check_benchmark(
                        spec, backend=be, quick=quick, system=system
                    )
                )
    if relations:
        report.extend(run_relations(backends=backends))
    return report
