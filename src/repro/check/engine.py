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


def _unit_fingerprint(
    spec: ClaimSpec, *, backend: str, quick: bool, system: str | None
) -> str:
    """Stable identity of one (claim file × backend) conformance unit.

    Hashes the benchmark's source fingerprint alongside the unit's
    switches, so a ``--resume`` never replays outcomes across a code,
    backend, or configuration change.
    """
    import hashlib

    from repro.sched.cache import _canonical, source_fingerprint

    sysname = system or spec.system
    bench = get_benchmark(
        spec.benchmark, get_system(sysname) if sysname else None
    )
    material = {
        "domain": "repro-check-unit",
        "benchmark": spec.benchmark,
        "sources": source_fingerprint(type(bench)),
        "backend": backend,
        "quick": quick,
        "system": sysname,
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


def _check_supervised(
    report: ConformanceReport,
    selected: Sequence[ClaimSpec],
    backends: Sequence[str],
    *,
    quick: bool,
    system: str | None,
    config: "ResilienceConfig",
) -> None:
    """Run the (backend × claim file) units under the resilience policy.

    Conformance outcomes are built in-process, so the worker pool cannot
    isolate them; supervision here is serial-grade — the shared retry/
    backoff policy, :func:`wall_clock_limit` for the per-unit timeout,
    journal checkpoints (one outcome list per unit) for ``--resume``,
    and simulated chaos keyed on the unit ordinal.
    """
    import time

    from repro.check.report import CheckOutcome
    from repro.resilience.supervisor import (
        _MAX_REAL_BACKOFF_S,
        JobTimeout,
        QuarantineError,
        WorkerCrash,
        _emit,
        wall_clock_limit,
    )

    tele = config.telemetry
    tele.mode = "serial"
    chaos = config.chaos
    journal = config.journal
    hub = config.hub
    if journal is not None:
        tele.journal_run_id = journal.run_id

    units = [(be, spec) for be in backends for spec in selected]
    for ordinal, (be, spec) in enumerate(units):
        fp = (
            _unit_fingerprint(spec, backend=be, quick=quick, system=system)
            if journal is not None
            else None
        )
        if fp is not None and fp in journal.completed:
            tele.resume_skips += 1
            _emit(hub, "resume-skip", benchmark=spec.benchmark, job=ordinal)
            report.extend(
                CheckOutcome.from_dict(d) for d in journal.completed[fp]
            )
            continue
        subject = f"check {spec.benchmark} [{be}]"
        outcomes: list[CheckOutcome] | None = None
        attempts = 0
        while True:
            try:
                action = (
                    chaos.worker_outcome(ordinal, attempts)
                    if chaos is not None
                    else "ok"
                )
                if action == "crash":
                    raise WorkerCrash(
                        f"injected crash (check unit {ordinal})"
                    )
                if action == "hang":
                    raise JobTimeout(f"injected hang (check unit {ordinal})")
                with wall_clock_limit(config.job_timeout_s, subject):
                    outcomes = check_benchmark(
                        spec, backend=be, quick=quick, system=system
                    )
                break
            except ReproError as exc:
                what = dict(benchmark=spec.benchmark, job=ordinal)
                if isinstance(exc, JobTimeout):
                    tele.timeouts += 1
                    _emit(hub, "timeout", **what, error=str(exc))
                elif isinstance(exc, WorkerCrash):
                    tele.crashes += 1
                    _emit(hub, "worker-crash", **what, error=str(exc))
                else:
                    tele.job_errors += 1
                    _emit(hub, "job-error", **what, error=str(exc))
                attempts += 1
                if attempts > config.max_retries:
                    tele.quarantined.append(
                        {**what, "attempts": attempts, "error": str(exc)}
                    )
                    _emit(hub, "quarantine", **what, attempts=attempts)
                    break
                retry = attempts - 1
                u = (
                    chaos.retry_jitter(ordinal, retry)
                    if chaos is not None
                    else 0.0
                )
                delay = config.retry_policy.backoff(retry, u)
                tele.retries += 1
                _emit(hub, "retry", **what, attempt=attempts, backoff_s=delay)
                time.sleep(min(delay, _MAX_REAL_BACKOFF_S))
        if outcomes is None:
            continue
        report.extend(outcomes)
        if journal is not None:
            journal.record(
                fp,
                [o.as_dict() for o in outcomes],
                meta={"benchmark": spec.benchmark, "backend": be},
            )
        tele.completed += 1
        if chaos is not None and chaos.interrupts_after(tele.completed):
            raise KeyboardInterrupt
    if tele.quarantined:
        names = ", ".join(
            f"{q['benchmark']}#{q['job']}" for q in tele.quarantined
        )
        hint = (
            f"; completed units are journaled as run {journal.run_id}"
            if journal is not None
            else ""
        )
        raise QuarantineError(
            f"{len(tele.quarantined)} check unit(s) quarantined after "
            f"retry exhaustion: {names}{hint}"
        )


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
    ``resilience`` supervises the per-(backend × claim file) units:
    retries with backoff, per-unit wall-clock timeouts, and journal
    checkpoints so an interrupted pass resumes without re-running
    completed units.
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
        _check_supervised(
            report, selected, backends,
            quick=quick, system=system, config=resilience,
        )
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
