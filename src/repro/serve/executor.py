"""Request execution: the bridge from the queue to the scheduler.

``execute_request`` takes one claimed :class:`~repro.serve.queue.
QueueEntry` and runs it through exactly the code path the CLI uses for
the same work — ``run``/``sweep`` through
:func:`~repro.sched.runner.run_jobs` / ``parallel_sweep`` under a
:class:`~repro.resilience.supervisor.ResilienceConfig`, ``profile``
through :func:`~repro.prof.profile_session`, ``check`` through
:func:`~repro.check.check_all` — builds a sweep's result document with
the CLI's :func:`~repro.prof.metrics.sweep_document`, and renders it
with the same :func:`~repro.prof.render_metrics` serializer the CLI's
``--out`` uses.  Same decomposition + same document + same serializer
= a served result that ``cmp``-compares byte-identical to the serial
command line, which is the recovery story's acceptance test.

Durability plumbing per request:

* a per-request run directory (:func:`request_run_dir`,
  :mod:`repro.resilience.fleet`), reopened by a re-execution after a
  crash, which resumes from the completed checkpoints instead of
  recomputing; ``GET /v1/jobs/<id>?watch=1`` streams its
  :func:`~repro.resilience.fleet.fleet_status` counts as progress;
* the request deadline threaded into the per-job timeout, with
  explicit deadline checks before the run, after a failure and after
  the run, so an expired request reports ``expired`` (HTTP 504), not a
  generic failure or a late ``done`` — the partial journal stays on
  disk either way.

``profile`` and ``check`` run in-process (the profiler patches ambient
execution state), serialized by a module lock so concurrent workers
cannot interleave two profiling sessions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import ReproError
from repro.serve.queue import QueueEntry

__all__ = ["ExecutionOutcome", "execute_request", "request_run_dir"]

#: profile/check patch process-global state (the profiler's runtime
#: hooks); one at a time across all worker threads
_INPROC_LOCK = threading.Lock()


@dataclass
class ExecutionOutcome:
    """What one execution attempt produced."""

    state: str                       #: "done" | "failed" | "expired"
    text: str | None = None          #: result document (state == done)
    error: str | None = None


def _deadline_remaining(entry: QueueEntry, now: float) -> float | None:
    """Seconds left on the request deadline; None when unbounded."""
    deadline = entry.deadline_at
    if deadline is None:
        return None
    return deadline - now


def _expired(entry: QueueEntry, now: float) -> bool:
    remaining = _deadline_remaining(entry, now)
    return remaining is not None and remaining <= 0.0


def execute_request(
    entry: QueueEntry,
    *,
    data_dir: str | Path,
    cache=None,
    jobs: int = 1,
    now: Callable[[], float] = time.time,
) -> ExecutionOutcome:
    """Run one claimed request to a terminal outcome.

    Never raises for request-level failures — supervision errors,
    deadline expiry, and benchmark bugs all come back as an
    :class:`ExecutionOutcome` so the worker loop stays a
    state-machine, not a try/except pyramid.
    """
    req = entry.request
    if _expired(entry, now()):
        return ExecutionOutcome(
            state="expired",
            error=f"deadline of {req.deadline_ms}ms expired before start",
        )
    try:
        if req.kind in ("run", "sweep"):
            outcome = _execute_scheduled(
                entry, data_dir=data_dir, cache=cache, jobs=jobs, now=now,
            )
        elif req.kind == "profile":
            outcome = _execute_profile(entry)
        else:
            outcome = _execute_check(entry)
    except ReproError as exc:
        if _expired(entry, now()):
            return ExecutionOutcome(state="expired", error=str(exc))
        return ExecutionOutcome(state="failed", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - a bug must fail the
        # request, never the worker thread that carries it
        return ExecutionOutcome(
            state="failed", error=f"{type(exc).__name__}: {exc}"
        )
    # a run the deadline could not interrupt still must not report done
    if _expired(entry, now()):
        return ExecutionOutcome(
            state="expired",
            error=f"deadline of {req.deadline_ms}ms expired during "
            f"{req.kind}",
        )
    return outcome


# ----------------------------------------------------------------------
def request_run_dir(data_dir: str | Path, request_id: str) -> Path:
    """The run directory of a ``run``/``sweep`` request,
    ``<data-dir>/journals/<request-id>.fleet/``."""
    from repro.resilience.fleet import fleet_dir

    return fleet_dir(Path(data_dir) / "journals", request_id)


def _make_config(entry: QueueEntry, data_dir, now):
    """The request's supervision config: the CLI's, with the request id
    as run id and the remaining deadline as the job timeout."""
    from repro.resilience.supervisor import ResilienceConfig

    return ResilienceConfig(
        run_id=entry.id,
        journal_root=request_run_dir(data_dir, entry.id).parent,
        command=f"serve-{entry.request.kind}",
        job_timeout_s=_deadline_remaining(entry, now()),
    )


def _execute_scheduled(
    entry: QueueEntry, *, data_dir, cache, jobs, now
) -> ExecutionOutcome:
    from repro.core.base import BenchResult
    from repro.prof.metrics import (
        BENCH_SCHEMA,
        execution_section,
        render_metrics,
        sweep_document,
    )
    from repro.sched.runner import parallel_sweep, run_jobs

    req = entry.request
    config = _make_config(entry, data_dir, now)
    doc: dict[str, Any]
    if req.kind == "sweep":
        sweep = parallel_sweep(
            req.benchmark,
            req.values,
            params=req.params,
            system=req.system,
            backend=req.backend,
            jobs=jobs,
            cache=cache,
            config=config,
        )
        doc = sweep_document(req.benchmark, req.params, sweep, config.telemetry)
    else:
        payloads = run_jobs(
            req.job_specs(), jobs=jobs, cache=cache, config=config,
        )
        result = BenchResult.from_dict(payloads[0]["result"])
        doc = {
            "schema": BENCH_SCHEMA,
            "benchmark": req.benchmark,
            "params": req.params,
            "results": [result.as_dict()],
            **execution_section(config.telemetry),
        }
    return ExecutionOutcome(state="done", text=render_metrics(doc))


def _execute_profile(entry: QueueEntry) -> ExecutionOutcome:
    from repro.arch.presets import get_system
    from repro.core.registry import get_benchmark
    from repro.exec.dispatch import use_backend, current_backend_name
    from repro.prof import profile_session, render_metrics

    req = entry.request
    with _INPROC_LOCK:
        system = get_system(req.system) if req.system else None
        bench = get_benchmark(req.benchmark, system)
        with use_backend(current_backend_name(req.backend)):
            with profile_session() as prof:
                bench.run(**req.params)
        doc = prof.metrics(benchmark=req.benchmark, params=req.params)
    return ExecutionOutcome(state="done", text=render_metrics(doc))


def _execute_check(entry: QueueEntry) -> ExecutionOutcome:
    import json

    from repro.check import check_all

    req = entry.request
    with _INPROC_LOCK:
        report = check_all(
            benchmarks=req.benchmarks,
            backend=req.backend,
            quick=req.quick,
            system=req.system,
        )
    text = json.dumps(report.as_dict(), indent=2) + "\n"
    return ExecutionOutcome(state="done", text=text)
