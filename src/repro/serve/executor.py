"""Request execution: the bridge from the queue to the supervised pool.

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

* a per-request :class:`~repro.resilience.journal.RunJournal` under
  ``<data-dir>/journals/<request-id>.ndjson``, ``attach``\\ ed so a
  re-execution after a crash resumes from completed checkpoints
  instead of recomputing;
* a per-request :class:`~repro.prof.activity.ActivityHub` whose
  ``sched`` records — plus one ``checkpoint`` event per journaled job
  — are forwarded to ``on_event``; the server streams them to
  ``GET /v1/jobs/<id>`` watchers as NDJSON progress;
* the request deadline threaded into the pool's per-job timeout, with
  an explicit pre-flight and post-failure deadline check so an expired
  request reports ``expired`` (HTTP 504), not a generic failure — the
  partial journal stays on disk either way.

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

__all__ = ["ExecutionOutcome", "execute_request"]

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
    on_event: Callable[[dict[str, Any]], None] | None = None,
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
            return _execute_pooled(
                entry, data_dir=data_dir, cache=cache, jobs=jobs,
                on_event=on_event, now=now,
            )
        if req.kind == "profile":
            return _execute_profile(entry, now=now)
        return _execute_check(entry, now=now)
    except ReproError as exc:
        if _expired(entry, now()):
            return ExecutionOutcome(state="expired", error=str(exc))
        return ExecutionOutcome(state="failed", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - a bug must fail the
        # request, never the worker thread that carries it
        return ExecutionOutcome(
            state="failed", error=f"{type(exc).__name__}: {exc}"
        )


# ----------------------------------------------------------------------
def _progress_hub(entry: QueueEntry, on_event):
    """A per-request ActivityHub forwarding sched records as dicts."""
    if on_event is None:
        return None
    from repro.prof.activity import ActivityHub

    hub = ActivityHub()

    def forward(rec) -> None:
        on_event({
            "event": rec.name,
            "kind": rec.kind,
            "seq": rec.seq,
            "args": dict(rec.args),
        })

    hub.subscribe(forward, kinds=("sched",))
    return hub


def _make_resilience(entry: QueueEntry, data_dir: Path, hub, now, on_event):
    from repro.resilience.journal import RunJournal
    from repro.resilience.supervisor import ResilienceConfig

    journal = RunJournal.attach(
        data_dir / "journals",
        run_id=entry.id,
        meta={
            "command": f"serve-{entry.request.kind}",
            "request": entry.id,
            "fingerprint": entry.request.fingerprint,
        },
    )
    if on_event is not None:
        # the pool's activity hub only speaks up on exceptional paths
        # (retries, timeouts, fallbacks); clean progress is the journal
        # checkpoint stream, so forward those to watchers too
        checkpoint = journal.record

        def record(fingerprint, payload, *, meta=None):
            checkpoint(fingerprint, payload, meta=meta)
            on_event({
                "event": "checkpoint", "kind": "sched", "job": fingerprint,
            })

        journal.record = record
    remaining = _deadline_remaining(entry, now())
    return ResilienceConfig(
        journal=journal,
        hub=hub,
        job_timeout_s=remaining if remaining is not None else None,
    )


def _execute_pooled(
    entry: QueueEntry, *, data_dir, cache, jobs, on_event, now
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
    hub = _progress_hub(entry, on_event)
    resilience = _make_resilience(entry, Path(data_dir), hub, now, on_event)
    try:
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
                resilience=resilience,
            )
            doc = sweep_document(
                req.benchmark, req.params, sweep, resilience.telemetry
            )
        else:
            payloads = run_jobs(
                req.job_specs(), jobs=jobs, cache=cache,
                resilience=resilience,
            )
            result = BenchResult.from_dict(payloads[0]["result"])
            doc = {
                "schema": BENCH_SCHEMA,
                "benchmark": req.benchmark,
                "params": req.params,
                "results": [result.as_dict()],
                **execution_section(resilience.telemetry),
            }
        return ExecutionOutcome(state="done", text=render_metrics(doc))
    finally:
        if resilience.journal is not None:
            resilience.journal.close()


def _execute_profile(entry: QueueEntry, *, now) -> ExecutionOutcome:
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
    if _expired(entry, now()):
        return ExecutionOutcome(
            state="expired",
            error=f"deadline of {req.deadline_ms}ms expired during profile",
        )
    return ExecutionOutcome(state="done", text=render_metrics(doc))


def _execute_check(entry: QueueEntry, *, now) -> ExecutionOutcome:
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
    if _expired(entry, now()):
        return ExecutionOutcome(
            state="expired",
            error=f"deadline of {req.deadline_ms}ms expired during check",
        )
    text = json.dumps(report.as_dict(), indent=2) + "\n"
    return ExecutionOutcome(state="done", text=text)
