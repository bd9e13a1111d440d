"""Command-line interface: run microbenchmarks and regenerate figures.

Usage examples::

    python -m repro list
    python -m repro table1
    python -m repro table1 --jobs 4 --backend jit
    python -m repro table1 --jobs 4 --run-id nightly --out table1.json
    python -m repro table1 --resume nightly --out table1.json
    python -m repro run CoMem --system carina -p n=4194304
    python -m repro sweep CoMem --values 262144,1048576,4194304
    python -m repro sweep CoMem --values 262144,1048576 --jobs 2 --out f9.json
    python -m repro sweep CoMem --values 262144,1048576 --jobs 2 \
        --chaos seed=7,crash=0.4,hang=0.2,max-fault-attempts=2 --job-timeout 10
    python -m repro sweep CoMem --values 262144,1048576 --jobs 2 \
        --trace fleet_trace.json --metrics metrics.prom
    python -m repro top <run-id> --once
    python -m repro journal show <run-id> --trace <trace-id-prefix>
    python -m repro specs
    python -m repro doctor CoMem
    python -m repro sanitize MemAlign --tool all
    python -m repro sanitize oob-write --tool memcheck
    python -m repro sanitize MemAlign --fault-seed 3 --h2d-fail-prob 0.5
    python -m repro profile WarpDivRedux --trace trace.json
    python -m repro run CoMem --trace trace.json --json metrics.json
    python -m repro prof diff before.json after.json
    python -m repro prof diff before.json after.json --claims benchmarks/claims
    python -m repro prof roofline metrics.json
    python -m repro check --all
    python -m repro check CoMem BankRedux --backend both
    python -m repro check --all --quick --json conformance.json
    python -m repro check --doc benchmarks/results/table1_summary.json

Exit codes: ``doctor`` and ``sanitize`` exit 1 when any critical
finding is reported, ``prof diff`` exits 1 when a metric regresses
beyond its threshold (or a ``--claims`` claim fails), ``check`` exits 1
when any conformance check fails; every command exits 2 on a runtime
error and 0 otherwise.  Supervised runs (``run``/``sweep``/``table1``/
``check`` with ``--jobs``, ``--join`` or any resilience flag, and
``table1``/``sweep`` with ``--metrics`` or ``--metrics-port``) add two
more: 3 when the run completed only through a degradation fallback (jit
backend re-run on the reference oracle, or local workers that could not
be started leaving the run to finish in-process), and 4 when the run
was interrupted (SIGINT/SIGTERM) with the completed work checkpointed
to the run journal — finish it with ``--resume``.

The parser is built from one command table (:data:`_COMMANDS`) whose
shared option groups are each defined once (:func:`_option_groups`);
``table1``, ``sweep``, ``run`` and ``check`` share one lifecycle, the
:class:`_RunSession`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.arch.presets import get_system, list_gpus
from repro.common.durable import make_dirs
from repro.common.errors import ReproError
from repro.common.tables import render_table
from repro.core.registry import ALL_BENCHMARKS, get_benchmark
from repro.core.suite import run_suite
from repro.exec import BACKENDS, current_backend_name, use_backend


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    """Parse ``-p key=value`` pairs, int/float-coercing values."""
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad parameter {pair!r}; expected key=value")
        key, raw = pair.split("=", 1)
        value: Any
        try:
            value = int(raw, 0)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key] = value
    return out


def _backend_scope(args: argparse.Namespace):
    """Context manager applying ``--backend`` to runtimes created inside."""
    backend = getattr(args, "backend", None)
    return use_backend(backend) if backend else nullcontext()


def _make_cache(args: argparse.Namespace):
    from repro.sched import ResultCache

    return ResultCache(args.cache_dir, enabled=not args.no_cache)


def _make_config(args: argparse.Namespace, *, command: str):
    """Build the supervision config of a supervised run from CLI flags.

    ``--run-id X`` starts a run X, ``--resume X`` reopens one and
    ``--join X`` adds this process to one; ``--no-journal`` runs
    without a journal.  Every command journals to the run directory
    ``<run-id>.fleet/``.
    """
    from repro.resilience import (
        ResilienceConfig, fleet_dir, new_run_id, parse_chaos,
    )

    join = getattr(args, "join", None)
    if join and args.resume:
        raise ReproError(
            "--resume does not apply to --join; re-join an interrupted "
            "run with --join <run-id> instead"
        )
    run_id = join or args.resume or args.run_id
    if not join and args.no_journal:
        run_id = None
    elif run_id is None:
        run_id = new_run_id()
    if run_id is not None and not join:
        root = Path(args.journal_dir)
        path = fleet_dir(root, run_id)
        if args.resume and not path.exists():
            raise ReproError(
                f"no journal for run {run_id!r} under {root} "
                f"(expected {path})"
            )
        if not args.resume and path.exists():
            raise ReproError(
                f"journal {path} already exists; pass --resume {run_id} "
                "to continue it or pick another --run-id"
            )
    kwargs: dict[str, Any] = {}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    if args.job_timeout is not None:
        kwargs["job_timeout_s"] = args.job_timeout
    if getattr(args, "lease_ttl", None) is not None:
        kwargs["lease_ttl_s"] = args.lease_ttl
    return ResilienceConfig(
        chaos=parse_chaos(args.chaos) if args.chaos else None,
        run_id=run_id,
        journal_root=args.journal_dir,
        command=command,
        worker_id=getattr(args, "worker_id", None) or "",
        **kwargs,
    )


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


class _Interrupted(Exception):
    """A scheduled run was interrupted and has said how to finish it;
    :func:`main` exits 4."""


class _RunSession:
    """The lifecycle that ``table1``, ``sweep``, ``run`` and ``check`` share.

    Built once from the parsed arguments, the session picks the mode:
    in-process, or supervised (``--jobs > 1``, ``--join``, any
    resilience flag, ``--metrics`` or ``--metrics-port``), which runs
    the job list through the engine of :mod:`repro.resilience.fleet`.
    Building it only validates arguments.  :meth:`scope` opens the
    cache and runs the command's work inside ``--backend``, SIGTERM
    handled as Ctrl-C, the ``--metrics-port`` endpoint, and the
    profiler when an in-process run asked for an export; an interrupted
    scheduled run says how to finish it and exits 4.  :meth:`finish`
    then renders the result and writes every artifact, once.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        command: str,
        *,
        benchmark: str | None = None,
        params: dict[str, Any] | None = None,
        scope_runtimes: bool = True,
    ) -> None:
        if getattr(args, "jobs", 1) < 1:
            raise ReproError(
                f"--jobs must be at least 1 (got {args.jobs}); to add this "
                "process to a running run, use --join <run-id>"
            )
        self.args = args
        self.command = command
        #: the run's name in the ``--stats`` sidecar and ``--json`` metrics
        self.benchmark = benchmark or command
        self.params = params
        #: wrap the work in ``--backend`` and, in-process, the profiler;
        #: ``check_all`` sets up both per backend itself (``--backend
        #: both``), and ``check``'s ``--json`` is its report
        self.scope_runtimes = scope_runtimes
        # a resilience or metrics flag asks for supervision, even at --jobs 1
        self.supervised = (
            getattr(args, "join", None) is not None
            or getattr(args, "jobs", 1) > 1
            or any(
                getattr(args, name, None) is not None
                for name in (
                    "max_retries", "job_timeout", "resume", "run_id", "chaos",
                    "metrics", "metrics_port",
                )
            )
        )
        self.config = (
            _make_config(args, command=command) if self.supervised else None
        )
        #: worker processes: ``--jobs N``; 0 joins a run
        self.jobs = (
            0 if getattr(args, "join", None) else getattr(args, "jobs", 1)
        )
        self.telemetry = self.config.telemetry if self.config else None
        self.cache = self.prof = None

    @property
    def scheduler(self) -> dict[str, Any]:
        """The scheduler keyword arguments of this run."""
        return {"jobs": self.jobs, "cache": self.cache, "config": self.config}

    def _run_dir(self) -> Path | None:
        """The run directory of a journaled run, once it exists."""
        config = self.config
        if config is None or config.run_id is None:
            return None
        from repro.resilience.fleet import fleet_dir

        run_dir = fleet_dir(config.journal_root, config.run_id)
        return run_dir if run_dir.is_dir() else None

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Open the run's resources around the command's work."""
        args = self.args
        with ExitStack() as stack:
            if self.scope_runtimes:
                stack.enter_context(_backend_scope(args))
            if not self.supervised:
                if self.scope_runtimes and any(
                    getattr(args, name, None)
                    for name in ("trace", "json", "ndjson")
                ):
                    from repro.prof import profile_session

                    self.prof = stack.enter_context(profile_session())
                yield
                return
            if self.scope_runtimes and (
                getattr(args, "json", None) or getattr(args, "ndjson", None)
            ):
                print(
                    "note: --json/--ndjson are not collected when a run is "
                    "supervised; rerun without --jobs, --join or resilience "
                    "flags to profile (--trace is stitched from the run "
                    "journal instead)",
                    file=sys.stderr,
                )
            if hasattr(args, "cache_dir"):  # the commands with the cache group
                self.cache = _make_cache(args)
            if threading.current_thread() is threading.main_thread():
                # a polite kill flushes the journal and exits 4, like Ctrl-C
                old = signal.signal(signal.SIGTERM, _raise_interrupt)
                stack.callback(signal.signal, signal.SIGTERM, old)
            if getattr(args, "metrics_port", None) is not None:
                from repro.obs import MetricsServer

                server = stack.enter_context(
                    MetricsServer(self._samples, port=args.metrics_port)
                )
                print(f"metrics: serving on {server.url}", file=sys.stderr)
            try:
                yield
            except KeyboardInterrupt:
                run_id = self.config.run_id
                if run_id is not None and self.jobs == 0:
                    message = (
                        f"interrupted: fleet run {run_id} keeps each worker's "
                        f"completed jobs in its own journal; finish with "
                        f"--join {run_id}"
                    )
                elif run_id is not None:
                    message = (
                        f"interrupted: {self.telemetry.completed} completed "
                        f"job(s) saved to journal run {run_id}; "
                        f"finish with --resume {run_id}"
                    )
                else:
                    message = (
                        "interrupted: journaling disabled (--no-journal), "
                        "partial results discarded"
                    )
                print(message, file=sys.stderr)
                raise _Interrupted from None

    def finish(
        self,
        status: int,
        text: str,
        *,
        document: Callable[[], dict[str, Any]] | None = None,
        written: str = "",
    ) -> int:
        """Print the result, write every artifact, and return the exit code.

        ``document`` builds the ``--out`` result document, which
        ``written`` names in the line confirming it.  For a command with
        a document, a ``--resume`` of a run its journal already completes
        prints a summary instead of ``text`` and writes the document only
        if it is missing.  A natural exit of 0 becomes 3 when the run
        degraded.
        """
        args = self.args
        tele = self.telemetry
        noop = (
            document is not None
            and args.resume is not None
            and tele.completed == 0
            and tele.resume_skips > 0
            and not tele.quarantined
        )
        if noop:
            print(
                f"nothing to do: run {args.resume} already complete "
                f"({tele.resume_skips} job(s) journaled)"
            )
        else:
            print(text)
        out = getattr(args, "out", None)
        if out and not (noop and Path(out).exists()):
            from repro.prof import write_metrics

            print(f"{written} written to {write_metrics(out, document())}")
        self._write_stats()
        self._write_metrics()
        self._write_exports()
        if status == 0 and tele is not None and tele.degraded:
            return 3
        return status

    def _write_stats(self) -> None:
        """Write the ``--stats`` sidecar: backend, cache, and supervision
        counters.

        Kept separate from ``--out`` so result documents stay
        byte-identical across cold/warm and serial/parallel runs while
        the scheduler's behaviour remains observable.
        """
        if not getattr(self.args, "stats", None):
            return
        backend = current_backend_name(getattr(self.args, "backend", None))
        doc = {
            "schema": "repro-prof-sched/1",
            "benchmark": self.benchmark,
            "backend": backend,
            "jobs": self.args.jobs,
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        if backend == "jit":
            from repro.jit import jit_stats

            # artifact-store counters (trace reuse), next to the result cache
            doc["jit"] = jit_stats()
        if self.telemetry is not None:
            doc["execution"] = self.telemetry.as_dict()
        path = Path(self.args.stats)
        make_dirs(path.parent)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"scheduler stats written to {path}")

    def _samples(self):
        """The sample set of ``--metrics`` and ``--metrics-port``: the run
        directory scanned read-only (so a scrape from any thread cannot
        perturb the run's byte-identical merge), this process's
        telemetry, and the cache counters."""
        from repro.obs import fleet_status, run_samples

        run_dir = self._run_dir()
        return run_samples(
            fleet_status(run_dir) if run_dir is not None else None,
            self.telemetry,
            run_id=self.config.run_id,
            command=self.command,
            cache_stats=self.cache.stats() if self.cache is not None else None,
        )

    def _write_metrics(self) -> None:
        """Write the ``--metrics`` exposition sidecar."""
        if not getattr(self.args, "metrics", None):
            return
        from repro.obs import write_metrics_text

        path = write_metrics_text(self.args.metrics, self._samples())
        print(f"metrics written to {path}")

    def _write_exports(self) -> None:
        """``--trace``, ``--ndjson`` and ``--json``: the profiler's for an
        in-process run; under supervision ``--trace`` is stitched from
        the run directory, one lane per worker."""
        args = self.args
        prof = self.prof
        if prof is not None:
            if getattr(args, "trace", None):
                path = prof.write_chrome_trace(args.trace)
                print(f"chrome trace written to {path}")
            if getattr(args, "ndjson", None):
                path = prof.write_ndjson(args.ndjson)
                print(f"ndjson log written to {path}")
            if getattr(args, "json", None):
                from repro.prof import write_metrics

                doc = prof.metrics(benchmark=self.benchmark, params=self.params)
                print(f"metrics written to {write_metrics(args.json, doc)}")
            return
        if not getattr(args, "trace", None):
            return
        run_dir = self._run_dir()
        if run_dir is None:
            print(
                "note: --trace under supervision needs a run journal; "
                "drop --no-journal",
                file=sys.stderr,
            )
            return
        from repro.obs import write_fleet_trace

        path = write_fleet_trace(run_dir, args.trace)
        print(f"stitched fleet trace written to {path}")


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [cls.name, cls.category, cls.paper_speedup, cls.default_system.gpu.name]
        for cls in ALL_BENCHMARKS
    ]
    print(
        render_table(
            ["benchmark", "guideline", "paper speedup", "default GPU"],
            rows,
            title="CUDAMicroBench microbenchmarks",
        )
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    session = _RunSession(args, "table1")
    with session.scope():
        if session.supervised:
            from repro.sched import parallel_suite

            report = parallel_suite(**session.scheduler)
        else:
            # the module global, read at call time: the perf benchmark's
            # launcher rebinds it to run Table I at its problem sizes
            report = run_suite()

    def document() -> dict[str, Any]:
        from repro.prof.metrics import execution_section

        return {**report.as_dict(), **execution_section(session.telemetry)}

    return session.finish(
        0 if report.all_verified else 1, report.render(),
        document=document, written="table",
    )


def cmd_run(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    session = _RunSession(args, "run", benchmark=args.benchmark, params=params)
    with session.scope():
        if session.supervised:
            from repro.core.base import BenchResult
            from repro.sched import JobSpec, run_jobs

            spec = JobSpec(
                benchmark=args.benchmark,
                params=params,
                system=args.system,
                backend=current_backend_name(),
            )
            payloads = run_jobs([spec], **session.scheduler)
            result = BenchResult.from_dict(payloads[0]["result"])
        else:
            system = get_system(args.system) if args.system else None
            result = get_benchmark(args.benchmark, system).run(**params)
    lines = [str(result)]
    if result.metrics:
        lines.append("metrics:")
        lines.extend(f"  {k}: {v:.6g}" for k, v in result.metrics.items())
    if result.notes:
        lines.append(result.notes)
    return session.finish(0 if result.verified else 1, "\n".join(lines))


def cmd_sweep(args: argparse.Namespace) -> int:
    values = (
        [int(v, 0) for v in args.values.split(",")] if args.values else None
    )
    params = _parse_params(args.param)
    system = get_system(args.system) if args.system else None
    bench = get_benchmark(args.benchmark, system)
    session = _RunSession(
        args, "sweep", benchmark=args.benchmark, params=params
    )
    with session.scope():
        if session.supervised:
            from repro.sched import parallel_sweep

            sweep = parallel_sweep(
                args.benchmark,
                values,
                params=params,
                system=args.system,
                **session.scheduler,
            )
        else:
            sweep = bench.sweep(values, **params)

    def document() -> dict[str, Any]:
        from repro.prof.metrics import sweep_document

        return sweep_document(args.benchmark, params, sweep, session.telemetry)

    return session.finish(
        0, sweep.render(), document=document, written="sweep results"
    )


def cmd_specs(_args: argparse.Namespace) -> int:
    from repro.arch.presets import get_gpu

    rows = []
    for name in list_gpus():
        g = get_gpu(name)
        rows.append(
            [
                g.name,
                f"{g.compute_capability[0]}.{g.compute_capability[1]}",
                g.sm_count,
                f"{g.clock_hz / 1e9:.2f}",
                f"{g.dram_bandwidth / 1e9:.0f}",
                f"{g.l2_size // 1024 // 1024} MiB",
                "yes" if g.global_loads_cached_in_l1 else "no",
            ]
        )
    print(
        render_table(
            ["GPU", "CC", "SMs", "GHz", "GB/s", "L2", "L1 for loads"],
            rows,
            title="preset architectures",
        )
    )
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Run a benchmark and print the performance doctor's findings.

    The run is profiled, its metrics document is built, and the doctor
    rules run over the *exported* per-kernel blocks — the same path an
    external tool would take over a saved metrics JSON.  Exits 1 if any
    finding is critical — usable as a CI gate.
    """
    from repro.host.doctor import diagnose_metrics
    from repro.prof import collect_metrics, merge_metrics, profile_session

    system = get_system(args.system) if args.system else None
    bench = get_benchmark(args.benchmark, system)
    with profile_session() as prof:
        bench.run(**_parse_params(args.param))
    docs = [
        collect_metrics(rt, benchmark=args.benchmark) for rt in prof.runtimes
    ]
    findings = []
    if docs:
        doc = merge_metrics(docs)
        for name, entry in doc["kernels"].items():
            findings.extend(diagnose_metrics(entry, doc["gpu"]))
    if not findings:
        print(f"{args.benchmark}: no findings")
        return 0
    print(f"{args.benchmark}: {len(findings)} finding(s)")
    for f in findings:
        print(f"  {f}")
    return 1 if any(f.severity == "critical" for f in findings) else 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a benchmark under the profiler and export its activity.

    Writes the per-benchmark metrics JSON (default:
    ``benchmarks/results/PROF_<benchmark>.json``) plus any requested
    Chrome trace / NDJSON log, and prints the roofline classification.
    """
    from repro.prof import profile_session, render_roofline, write_metrics
    from repro.prof.roofline import classify_kernel
    from repro.timing.model import estimate_kernel_time

    system = get_system(args.system) if args.system else None
    params = _parse_params(args.param)
    with _backend_scope(args):
        bench = get_benchmark(args.benchmark, system)
        with profile_session() as prof:
            result = bench.run(**params)
    print(result)

    doc = prof.metrics(benchmark=args.benchmark, params=params)
    out = Path(args.json) if args.json else (
        Path("benchmarks/results") / f"PROF_{args.benchmark}.json"
    )
    path = write_metrics(out, doc)
    print(f"metrics written to {path}")
    if args.trace:
        print(f"chrome trace written to {prof.write_chrome_trace(args.trace)}")
    if args.ndjson:
        print(f"ndjson log written to {prof.write_ndjson(args.ndjson)}")

    points = []
    for rt in prof.runtimes:
        seen = set()
        for stats, _ in rt.kernel_log:
            if stats.name in seen:
                continue
            seen.add(stats.name)
            timing = estimate_kernel_time(stats, rt.gpu, launch_kind="none")
            points.append(classify_kernel(
                stats,
                rt.gpu,
                exec_s=timing.exec_s,
                dram_bytes=timing.traffic.dram_bytes if timing.traffic else None,
            ))
    if points:
        print()
        print(render_roofline(points, title=f"roofline: {args.benchmark}"))
    n_kernels = len(doc["kernels"])
    n_records = len(prof.records)
    print(f"\n{n_kernels} kernel(s), {n_records} activity record(s) collected")
    return 0


def cmd_prof_diff(args: argparse.Namespace) -> int:
    """Compare two metrics documents; exit 1 on regression.

    With ``--claims`` the paper-claim specs are evaluated against the
    *after* document and failures count as regressions — absolute
    thresholds alongside the relative before/after ones.
    """
    from repro.prof import diff_metrics, load_metrics

    claim_specs = None
    if args.claims:
        from repro.check import load_claims

        claim_specs = load_claims(args.claims)
    before = load_metrics(args.before)
    after = load_metrics(args.after)
    report = diff_metrics(
        before,
        after,
        time_tolerance=args.time_tolerance,
        metric_tolerance=args.metric_tolerance,
        before_label=Path(args.before).name,
        after_label=Path(args.after).name,
        claim_specs=claim_specs,
        allow_backend_mismatch=args.allow_backend_mismatch,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Run the paper-claims conformance pass; exit 1 on any failure.

    Live mode (``--all`` or benchmark names) re-runs each claimed
    comparison under the profiler per backend, evaluates the claim
    files, audits the exported metrics against the invariant registry,
    and runs the metamorphic relations.  Offline mode (``--doc``)
    audits saved documents instead: structural validation, kernel/
    result invariants, and result-level claims at matching parameters.
    """
    from repro.check import (
        ConformanceReport,
        check_all,
        check_document,
        evaluate_claims_on_document,
        load_claims_dir,
    )

    if args.doc:
        from repro.prof import load_metrics

        specs = load_claims_dir(args.claims_dir)
        report = ConformanceReport(title="conformance audit of saved documents")
        for doc_path in args.doc:
            doc = load_metrics(doc_path)
            subject = Path(doc_path).stem
            report.extend(check_document(doc, subject=subject))
            report.extend(
                evaluate_claims_on_document(
                    specs.values(), doc, quick=args.quick
                )
            )
        print(report.render())
        status = 0 if report.ok else 1
    else:
        if not args.benchmarks and not args.all:
            raise ReproError(
                "nothing to check: name benchmarks, or pass --all / --doc"
            )
        session = _RunSession(args, "check", scope_runtimes=False)
        with session.scope():
            report = check_all(
                benchmarks=args.benchmarks or None,
                claims_dir=args.claims_dir,
                backend=args.backend,
                quick=args.quick,
                relations=not args.no_relations,
                system=args.system,
                resilience=session.config,
            )
        status = session.finish(0 if report.ok else 1, report.render())
    if args.json:
        path = report.write_json(args.json)
        print(f"conformance report written to {path}")
    return status


def cmd_prof_roofline(args: argparse.Namespace) -> int:
    """Print the roofline table stored in a metrics document."""
    from repro.prof import load_metrics

    doc = load_metrics(args.metrics)
    rows = []
    for name, entry in sorted(doc.get("kernels", {}).items()):
        roof = entry.get("roofline")
        if not roof:
            continue
        inten = roof["intensity_ops_per_byte"]
        rows.append([
            name,
            "inf" if inten == float("inf") else f"{inten:.3f}",
            f"{roof['ridge_ops_per_byte']:.3f}",
            roof["bound"],
            f"{roof['attained_ops_per_s'] / 1e9:.2f}",
            f"{roof['roof_ops_per_s'] / 1e9:.2f}",
            f"{roof['roof_efficiency']:.0%}",
        ])
    if not rows:
        print("no roofline data in document (timing was not included)")
        return 0
    print(render_table(
        ["kernel", "ops/byte", "ridge", "bound", "Gops/s", "roof", "of roof"],
        rows,
        title=f"roofline: {doc.get('benchmark') or Path(args.metrics).name}",
    ))
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run a benchmark or demo under the compute-sanitizer analog.

    ``target`` is a Table I benchmark name or a demo from
    :mod:`repro.sanitize.demos`.  Exits 1 on any critical finding,
    2 if the run itself died on a runtime error.
    """
    from repro.faults import FaultPlan
    from repro.host.runtime import CudaLite
    from repro.sanitize import Sanitizer, sanitize_session
    from repro.sanitize.demos import DEMOS, run_demo

    plan = None
    if (
        args.fault_seed is not None
        or args.h2d_fail_prob
        or args.d2h_fail_prob
        or args.corrupt_prob
        or args.abort_at is not None
        or args.alloc_fail_after is not None
        or args.stall_every is not None
    ):
        plan = FaultPlan(
            args.fault_seed or 0,
            alloc_fail_after_bytes=args.alloc_fail_after,
            h2d_fail_prob=args.h2d_fail_prob,
            d2h_fail_prob=args.d2h_fail_prob,
            corrupt_prob=args.corrupt_prob,
            kernel_abort_at=args.abort_at,
            max_transfer_failures=args.max_transfer_failures,
            stall_every=args.stall_every,
        )
    san = Sanitizer(args.tool)
    status = 0
    with sanitize_session(
        sanitizer=san, faults=plan, watchdog_cycles=args.watchdog
    ) as session:
        try:
            if args.target in DEMOS:
                rt = CudaLite()
                run_demo(args.target, rt, **_parse_params(args.param))
            else:
                system = get_system(args.system) if args.system else None
                bench = get_benchmark(args.target, system)
                bench.run(**_parse_params(args.param))
        except ReproError as exc:
            print(f"run aborted: {exc}", file=sys.stderr)
            status = 2
    print(san.report().render())
    fault_logs = [rt.fault_log for rt in session.runtimes if rt.fault_log.events]
    for log in fault_logs:
        print(log.render())
    if status == 0 and not san.report().ok:
        status = 1
    return status


def cmd_top(args: argparse.Namespace) -> int:
    """Live read-only view of a fleet run (``repro top <run-id>``).

    Scans the shared coordination directory with the same torn-tolerant
    readers the merge uses and never writes anything, so watching a run
    cannot change its merged result (the CLI tests assert the merged
    document is byte-identical with and without a monitor attached).
    Refreshes every ``--interval`` seconds until the run has no jobs
    left; ``--once`` prints a single snapshot and exits.
    """
    import time

    from repro.obs import fleet_status, render_fleet_status
    from repro.resilience.fleet import fleet_dir

    run_dir = fleet_dir(args.journal_dir, args.run_id)
    try:
        while True:
            status = fleet_status(run_dir)
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(render_fleet_status(status))
            if args.once:
                return 0
            if status["jobs_total"] and not status["jobs_remaining"]:
                print("run complete")
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _age(seconds: float) -> str:
    """A compact human age like ``3d4h`` / ``12m`` for journal listings."""
    seconds = max(0.0, seconds)
    days, rem = divmod(int(seconds), 86400)
    hours, rem = divmod(rem, 3600)
    minutes = rem // 60
    if days:
        return f"{days}d{hours}h"
    if hours:
        return f"{hours}h{minutes}m"
    return f"{minutes}m"


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the benchmark-as-a-service daemon until SIGTERM/SIGINT.

    SIGTERM triggers the graceful drain: intake flips to 503, in-flight
    requests finish (journals flush per checkpoint), queued requests
    stay durable on disk, and the listening socket closes cleanly.
    Exit 0 when the queue drained empty, 4 when accepted work remains
    for the next incarnation (the "interrupted; journal saved" code).
    """
    import signal
    import threading

    from repro.serve import ServeDaemon

    daemon = ServeDaemon(
        args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        jobs=args.jobs,
        max_queue=args.max_queue,
        max_per_client=args.max_per_client,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache=_make_cache(args),
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    for name in ("SIGTERM", "SIGINT"):
        if hasattr(signal, name):
            signal.signal(getattr(signal, name), _on_signal)

    daemon.start()
    rec = daemon.recovery
    print(
        f"serve: listening on {daemon.url} (data dir {args.data_dir})",
        file=sys.stderr,
    )
    if rec is not None and rec.requests:
        print(
            f"serve: recovered {rec.requests} request(s): "
            f"{rec.requeued} requeued ({rec.releases} interrupted mid-run), "
            f"{rec.completed} already complete",
            file=sys.stderr,
        )
    stop.wait()
    print("serve: draining...", file=sys.stderr)
    code = daemon.drain(grace_s=args.drain_grace)
    pending = "clean" if code == 0 else "work remains; restart to resume"
    print(
        f"serve: drained in {daemon.drain_duration_s:.2f}s ({pending})",
        file=sys.stderr,
    )
    return code


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.sched import gc_cache

    max_bytes = None
    if args.max_bytes is not None:
        max_bytes = _parse_size(args.max_bytes)
    summary = gc_cache(
        args.cache_dir,
        older_than_days=args.older_than,
        max_bytes=max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(summary['removed'])} entr(ies) "
        f"({summary['removed_bytes']} bytes), kept {summary['kept']} "
        f"({summary['kept_bytes']} bytes)"
    )
    by_reason: dict[str, int] = {}
    for entry in summary["removed"]:
        by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
    for reason, n in sorted(by_reason.items()):
        print(f"  {n} by {reason}")
    if not args.dry_run and summary["tmp_files_removed"]:
        print(f"swept {summary['tmp_files_removed']} tmp file(s)")
    return 0


def _parse_size(text: str) -> int:
    """Parse '64M'/'1G'/'4096' size arguments for ``cache gc``."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    t = text.strip().lower().rstrip("ib")
    if t and t[-1] in units:
        try:
            return int(float(t[:-1]) * units[t[-1]])
        except ValueError:
            pass
    try:
        return int(t)
    except ValueError:
        raise ReproError(
            f"cannot parse size {text!r}; use bytes or K/M/G suffixes"
        ) from None


def cmd_journal_ls(args: argparse.Namespace) -> int:
    import time

    from repro.resilience import list_runs

    runs = list_runs(args.journal_dir)
    if not runs:
        print(f"no journaled runs under {args.journal_dir}")
        return 0
    now = time.time()
    print(f"{'RUN':<14} {'COMMAND':<8} {'JOBS':>6}  AGE")
    for entry in runs:
        jobs = str(entry["jobs"])
        if entry["total"]:
            jobs = f"{entry['jobs']}/{entry['total']}"
        print(
            f"{entry['run_id']:<14} {entry['command'] or '-':<8} {jobs:>6}  "
            f"{_age(now - entry['mtime'])}"
        )
    return 0


def cmd_journal_show(args: argparse.Namespace) -> int:
    from repro.obs import TraceContext, read_flight_dump
    from repro.resilience.fleet import (
        fleet_dir,
        fleet_status,
        flight_dumps,
        read_journals,
        read_manifest,
    )

    run_dir = fleet_dir(args.journal_dir, args.run_id)
    if not run_dir.is_dir():
        raise ReproError(
            f"no journaled run {args.run_id!r} under {args.journal_dir}; "
            "see 'repro journal ls'"
        )
    manifest = read_manifest(run_dir)
    status = fleet_status(run_dir)
    total = status["jobs_total"]
    # span identity is derived from the run id and the current manifest
    root = TraceContext.root(args.run_id)
    print(
        f"fleet run {args.run_id}: command={manifest.get('command', '-')} "
        f"jobs={total} trace={root.trace_id}"
    )
    if args.trace or args.span:
        span_of: dict[str, str] = {}
        for i, fp in enumerate(manifest.get("jobs", [])):
            span_of.setdefault(fp, root.job(i).span_id)
        shown = scanned = 0
        for worker, records in read_journals(run_dir).items():
            for fp, rec in records.items():
                if fp not in span_of:
                    continue
                scanned += 1
                span = span_of[fp]
                if not (
                    root.trace_id.startswith(args.trace or "")
                    and span.startswith(args.span or "")
                ):
                    continue
                shown += 1
                bench = (rec.get("meta") or {}).get("benchmark") or "?"
                print(f"  {fp[:16]}  {bench:<14} span={span}  worker={worker}")
        print(f"  {shown}/{scanned} job(s) matched")
    else:
        for w in status["workers"]:
            print(f"  worker {w['worker']}: {w['completed']} completed")
    print(
        f"  completed {status['jobs_completed']}/{total}, "
        f"quarantined {status['quarantined']}, "
        f"live leases {len(status['active_leases'])}"
    )
    if status["jobs_completed"] < total:
        print(f"  finish with: repro <command> ... --resume {args.run_id}")
    dumps = flight_dumps(run_dir)
    if dumps:
        print(f"  flight dumps ({len(dumps)}):")
    for p in dumps:
        try:
            doc = read_flight_dump(p)
        except (OSError, ValueError):
            print(f"    {p.name}  <unreadable>")
            continue
        print(
            f"    {p.name}  reason={doc.get('reason', '?')} "
            f"records={len(doc.get('records') or [])} "
            f"dropped={doc.get('dropped', 0)}"
        )
    return 0


def cmd_journal_gc(args: argparse.Namespace) -> int:
    from repro.resilience import gc_runs

    summary = gc_runs(
        args.journal_dir,
        older_than_days=args.older_than,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(summary['removed'])} run(s), kept {summary['kept']}"
    )
    for entry in summary["removed"]:
        print(f"  {entry['run_id']}")
    if not args.dry_run:
        print(
            f"swept {summary['stale_leases_evicted']} stale lease(s), "
            f"{summary['steal_remnants_removed']} steal remnant(s), "
            f"{summary['tmp_files_removed']} tmp file(s)"
        )
    return 0


_Option = tuple[tuple[str, ...], dict[str, Any]]


def _opt(*flags: str, **kwargs: Any) -> _Option:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _option_groups() -> dict[str, tuple[_Option, ...]]:
    """The shared option groups, by name; each option is defined once.

    A command takes a group by naming it in its :data:`_COMMANDS` row,
    so an option added to a group reaches every command in the group.
    Built when the parser is, because two defaults live in modules the
    CLI imports lazily.
    """
    from repro.resilience import DEFAULT_JOURNAL_DIR
    from repro.sched import DEFAULT_CACHE_DIR

    cache_dir = _opt(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result-cache directory (default {DEFAULT_CACHE_DIR})",
    )
    no_cache = _opt(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache",
    )
    journal_dir = _opt(
        "--journal-dir", default=DEFAULT_JOURNAL_DIR,
        help=f"run-journal directory (default {DEFAULT_JOURNAL_DIR})",
    )
    return {
        "system": (_opt("--system", help="carina | fornax | rtx3080"),),
        "param": (
            _opt(
                "-p", "--param", action="append", default=[],
                help="key=value run parameter",
            ),
        ),
        "dry-run": (
            _opt(
                "--dry-run", action="store_true",
                help="report what would be removed without touching anything",
            ),
        ),
        "backend": (
            _opt(
                "--backend",
                choices=BACKENDS,
                help="memory-analysis execution backend (default: reference, "
                "or the REPRO_BACKEND environment variable)",
            ),
        ),
        "scheduler": (
            _opt(
                "--jobs",
                type=int,
                default=1,
                help="worker processes for the sweep scheduler (default 1 = serial)",
            ),
            _opt("--stats", help="write scheduler/cache statistics JSON here"),
        ),
        "cache": (no_cache, cache_dir),
        "cache dir": (cache_dir,),
        "journal dir": (journal_dir,),
        "resilience": (
            _opt(
                "--max-retries", type=int, default=None, metavar="N",
                help="retries per failing job before it is quarantined "
                "(default 2)",
            ),
            _opt(
                "--job-timeout", type=float, default=None, metavar="SECONDS",
                help="wall-clock budget per job; a job past it is killed and "
                "retried",
            ),
            _opt(
                "--resume", metavar="RUN_ID",
                help="resume an interrupted run from its journal, skipping "
                "already-completed jobs",
            ),
            _opt(
                "--run-id", metavar="RUN_ID",
                help="journal id for this run (default: random)",
            ),
            journal_dir,
            _opt(
                "--no-journal", action="store_true",
                help="disable checkpointing (an interrupted run saves nothing)",
            ),
            _opt(
                "--chaos", metavar="SPEC",
                help="deterministic scheduler fault injection, e.g. "
                "'seed=7,crash=0.4,hang=0.2,max-fault-attempts=2'",
            ),
        ),
        "fleet": (
            _opt(
                "--join", default=None, metavar="RUN_ID",
                help="become one worker of an existing fleet run (started "
                "elsewhere with --jobs or another --join) and merge when "
                "the run completes",
            ),
            _opt(
                "--worker-id", default=None, metavar="ID",
                help="stable worker identity for fleet journals and leases "
                "(default: derived from pid)",
            ),
            _opt(
                "--lease-ttl", type=float, default=None, metavar="SECONDS",
                help="missed-heartbeat window before another worker may "
                "steal a job lease; workers beat every TTL / 3 (default 5)",
            ),
        ),
        "obs": (
            _opt(
                "--metrics", metavar="PATH",
                help="write a Prometheus text-format metrics sidecar here "
                "when the run finishes",
            ),
            _opt(
                "--metrics-port", type=int, default=None, metavar="PORT",
                help="serve GET /metrics live during the run on this port "
                "(0 = ephemeral; the resolved URL is printed on stderr)",
            ),
        ),
        "export": (
            _opt("--trace", help="write a Chrome trace-event JSON here"),
            _opt("--json", help="write the metrics document here"),
            _opt("--ndjson", help="write an NDJSON activity log here"),
        ),
    }


@dataclass(frozen=True)
class _Command:
    """One row of the command table.

    ``path`` is the command as typed (``"journal show"``); a row without
    a handler is a command group, whose subcommands' rows follow it.
    ``groups`` names shared option groups (:func:`_option_groups`);
    ``options`` are the command's own arguments, added first.
    """

    path: str
    help: str
    fn: Callable[[argparse.Namespace], int] | None = None
    groups: tuple[str, ...] = ()
    options: tuple[_Option, ...] = ()


_COMMANDS: tuple[_Command, ...] = (
    _Command("list", "list the fourteen microbenchmarks", cmd_list),
    _Command(
        "table1", "run the full suite and print Table I", cmd_table1,
        groups=("backend", "scheduler", "cache", "resilience", "fleet", "obs"),
        options=(
            _opt("--out", help="write the Table I result document here"),
            _opt(
                "--trace",
                help="write a Chrome trace here: the profiler's when the "
                "suite runs in-process, stitched from the run journal "
                "when it runs under the scheduler (journaled and fleet "
                "runs)",
            ),
        ),
    ),
    _Command("specs", "show the preset GPU architectures", cmd_specs),
    _Command(
        "run", "run one microbenchmark", cmd_run,
        groups=("system", "param", "backend", "export", "resilience"),
        options=(_opt("benchmark", help="Table I name, e.g. CoMem"),),
    ),
    _Command(
        "sweep", "regenerate a benchmark's figure sweep", cmd_sweep,
        groups=(
            "system", "param", "backend", "scheduler", "cache", "resilience",
            "fleet", "export", "obs",
        ),
        options=(
            _opt("benchmark"),
            _opt("--values", help="comma-separated sweep values"),
            _opt("--out", help="write the sweep result document here"),
        ),
    ),
    _Command("journal", "inspect and prune the run-journal directory"),
    _Command(
        "journal ls", "list journaled runs, newest first", cmd_journal_ls,
        groups=("journal dir",),
    ),
    _Command(
        "journal show", "show one run's journaled jobs", cmd_journal_show,
        groups=("journal dir",),
        options=(
            _opt("run_id", help="run id as printed by journal ls"),
            _opt(
                "--trace", metavar="TRACE_ID",
                help="only show jobs whose trace id starts with this prefix",
            ),
            _opt(
                "--span", metavar="SPAN_ID",
                help="only show jobs whose span id starts with this prefix",
            ),
        ),
    ),
    _Command(
        "journal gc", "prune old runs and always sweep stale fleet leases",
        cmd_journal_gc,
        groups=("dry-run", "journal dir"),
        options=(
            _opt(
                "--older-than", type=float, default=None, metavar="DAYS",
                help="remove runs whose newest record is older than this many "
                "days (default: keep all runs, only sweep stale leases)",
            ),
        ),
    ),
    _Command(
        "serve", "run the crash-tolerant benchmark-as-a-service daemon",
        cmd_serve,
        groups=("cache",),
        options=(
            _opt(
                "--host", default="127.0.0.1",
                help="bind address (default 127.0.0.1)",
            ),
            _opt(
                "--port", type=int, default=8321,
                help="listen port; 0 = ephemeral (default 8321)",
            ),
            _opt(
                "--data-dir", default=".repro-serve",
                help="durable queue directory: intake journal, request state, "
                "results, per-request run journals (default .repro-serve)",
            ),
            _opt(
                "--workers", type=int, default=2,
                help="request worker threads (default 2)",
            ),
            _opt(
                "--jobs", type=int, default=1,
                help="scheduler worker processes per request (default 1)",
            ),
            _opt(
                "--max-queue", type=int, default=None, metavar="N",
                help="accepted-but-unclaimed bound; past it submissions get "
                "429 + Retry-After (default 64)",
            ),
            _opt(
                "--max-per-client", type=int, default=None, metavar="N",
                help="queued+running cap per X-Client-Id (default 8)",
            ),
            _opt(
                "--breaker-threshold", type=int, default=None, metavar="N",
                help="consecutive failures before a benchmark's circuit opens "
                "(default 3)",
            ),
            _opt(
                "--breaker-cooldown", type=float, default=None, metavar="SECONDS",
                help="open-circuit cool-down before a half-open probe "
                "(default 30)",
            ),
            _opt(
                "--drain-grace", type=float, default=30.0, metavar="SECONDS",
                help="how long a SIGTERM drain waits for in-flight requests "
                "before leaving them for restart recovery (default 30)",
            ),
        ),
    ),
    _Command("cache", "inspect and prune the result cache"),
    _Command(
        "cache gc",
        "bound the cache by age and/or total size "
        "(content-addressed entries: eviction only costs a recompute)",
        cmd_cache_gc,
        groups=("dry-run", "cache dir"),
        options=(
            _opt(
                "--older-than", type=float, default=None, metavar="DAYS",
                help="remove entries not (re)stored within this many days",
            ),
            _opt(
                "--max-bytes", default=None, metavar="SIZE",
                help="then evict oldest-first until the total fits (bytes, or "
                "K/M/G suffixes)",
            ),
        ),
    ),
    _Command(
        "top", "live read-only view of a running fleet", cmd_top,
        groups=("journal dir",),
        options=(
            _opt("run_id", help="fleet run id (see 'journal ls')"),
            _opt(
                "--interval", type=float, default=2.0, metavar="SECONDS",
                help="refresh interval (default 2)",
            ),
            _opt(
                "--once", action="store_true",
                help="print one snapshot and exit instead of refreshing",
            ),
        ),
    ),
    _Command(
        "profile", "run one microbenchmark under the profiler", cmd_profile,
        groups=("system", "param", "backend", "export"),
        options=(_opt("benchmark", help="Table I name, e.g. WarpDivRedux"),),
    ),
    _Command("prof", "analyze saved metrics documents"),
    _Command(
        "prof diff", "compare two metrics JSONs; exit 1 on regression",
        cmd_prof_diff,
        options=(
            _opt("before", help="baseline metrics JSON"),
            _opt("after", help="candidate metrics JSON"),
            _opt(
                "--time-tolerance",
                type=float,
                default=0.10,
                help="relative time-growth threshold (default 0.10 = +10%%)",
            ),
            _opt(
                "--metric-tolerance",
                type=float,
                default=0.05,
                help="absolute efficiency-drop threshold (default 0.05)",
            ),
            _opt(
                "--claims",
                help="claim file or directory; claims failing on the after "
                "document count as regressions",
            ),
            _opt(
                "--allow-backend-mismatch",
                action="store_true",
                help="diff documents produced by different execution backends "
                "anyway (refused by default: a backend change is not a "
                "performance delta)",
            ),
        ),
    ),
    _Command(
        "prof roofline", "print the roofline table of a metrics JSON",
        cmd_prof_roofline,
        options=(_opt("metrics", help="metrics JSON from `repro profile`"),),
    ),
    _Command(
        "check",
        "verify the paper's claims: Table I ranges, figure trends, "
        "metric invariants, metamorphic relations",
        cmd_check,
        groups=("system", "resilience"),
        options=(
            _opt(
                "benchmarks",
                nargs="*",
                help="Table I names to check (default: none; use --all)",
            ),
            _opt(
                "--all", action="store_true",
                help="check every benchmark with a claim file",
            ),
            _opt(
                "--backend",
                choices=(*BACKENDS, "both"),
                help="execution backend(s) to check under: one name or 'both' "
                "(reference+jit, the default)",
            ),
            _opt(
                "--quick",
                action="store_true",
                help="skip claims tagged slow = true in their claim file",
            ),
            _opt(
                "--claims-dir",
                help="claim-file directory (default benchmarks/claims)",
            ),
            _opt(
                "--doc",
                action="append",
                default=[],
                help="audit a saved metrics/results JSON instead of running live "
                "(repeatable)",
            ),
            _opt(
                "--no-relations",
                action="store_true",
                help="skip the metamorphic-relation runner",
            ),
            _opt("--json", help="write the conformance report JSON here"),
        ),
    ),
    _Command(
        "doctor", "diagnose a benchmark's kernels for performance bugs",
        cmd_doctor,
        groups=("system", "param"),
        options=(_opt("benchmark", help="Table I name, e.g. CoMem"),),
    ),
    _Command(
        "sanitize",
        "run under the compute-sanitizer analog, with optional fault injection",
        cmd_sanitize,
        groups=("system", "param"),
        options=(
            _opt(
                "target", help="benchmark (e.g. MemAlign) or demo (e.g. oob-write)"
            ),
            _opt(
                "--tool",
                default="all",
                choices=("all", "memcheck", "racecheck", "synccheck", "leakcheck"),
                help="sanitizer tool to enable (default: all)",
            ),
            _opt(
                "--fault-seed", type=int, default=None,
                help="seed for the fault plan",
            ),
            _opt("--h2d-fail-prob", type=float, default=0.0),
            _opt("--d2h-fail-prob", type=float, default=0.0),
            _opt("--corrupt-prob", type=float, default=0.0),
            _opt(
                "--abort-at", type=int, default=None,
                help="0-based launch ordinal to abort",
            ),
            _opt(
                "--alloc-fail-after", type=int, default=None,
                help="allocation byte budget",
            ),
            _opt(
                "--max-transfer-failures",
                type=int,
                default=None,
                help="cap on injected transfer failures (1 = fail once, then recover)",
            ),
            _opt(
                "--stall-every", type=int, default=None,
                help="stall every N-th stream op",
            ),
            _opt(
                "--watchdog", type=float, default=None,
                help="issue-cycle budget per kernel",
            ),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by walking the command table."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="CUDAMicroBench reproduction: simulated GPU microbenchmarks",
    )
    groups = _option_groups()
    subparsers = {"": p.add_subparsers(dest="command", required=True)}
    for cmd in _COMMANDS:
        parent, _, name = cmd.path.rpartition(" ")
        sp = subparsers[parent].add_parser(name, help=cmd.help)
        if cmd.fn is None:
            subparsers[cmd.path] = sp.add_subparsers(
                dest=f"{name}_command", required=True
            )
            continue
        shared = (opt for group in cmd.groups for opt in groups[group])
        for flags, kwargs in (*cmd.options, *shared):
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(fn=cmd.fn)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Interrupted:
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
