"""Prometheus text-format metrics exposition.

The scrape surface of one supervised run, built by one function,
:func:`run_samples`, from three sources: the run directory's
:func:`~repro.resilience.fleet.fleet_status` snapshot (``status``), the
:class:`~repro.resilience.supervisor.SchedTelemetry` of this process
(``tele``), and the open :class:`~repro.sched.cache.ResultCache`
(``cache``).  Rendered in the `Prometheus text exposition format`_
(version 0.0.4: ``# HELP``/``# TYPE`` comment lines, one
``name{labels} value`` sample per line), the format every scraper,
``promtool``, and ``curl | grep`` already speak.

The same sample set is written as a ``--metrics <path>`` sidecar at the
end of a run and served live from the stdlib HTTP endpoint of
:mod:`repro.obs.server` during ``--metrics-port`` runs.

Metric name registry (all prefixed ``repro_``; see
``docs/observability.md``):

=====================================  ======  =======================
``repro_run_info``                     tele    1, labeled run/command/mode
``repro_run_degraded``                 tele    1 when a fallback was taken
``repro_jobs_total``                   status  jobs in the run's manifest
``repro_jobs_completed_total``         status  manifest jobs journaled
``repro_jobs_remaining``               status  manifest jobs not resolved
``repro_quarantined_total``            status  manifest jobs quarantined
``repro_leases_acquired_total``        status  fresh job leases claimed
``repro_leases_stolen_total``          status  stale/corrupt leases stolen
``repro_heartbeats_total``             status  lease heartbeats written
``repro_flight_dumps_total``           status  flight-recorder dumps
``repro_worker_jobs_completed_total``  status  per-worker completions
``repro_resume_skips_total``           tele    jobs replayed from journal
``repro_retries_total``                tele    failed attempts retried
``repro_timeouts_total``               tele    jobs past their budget
``repro_worker_crashes_total``         tele    worker processes that died
``repro_job_errors_total``             tele    other per-attempt errors
``repro_fallbacks_total``              tele    degradation steps taken
``repro_fleet_workers``                tele    workers this process ran
``repro_duplicate_completions_total``  tele    jobs finished by >1 worker
``repro_cache_hits_total``             cache   result-cache hits
``repro_cache_misses_total``           cache   result-cache misses
``repro_cache_stores_total``           cache   result-cache writes
``repro_cache_quarantines_total``      cache   corrupt entries quarantined
=====================================  ======  =======================

.. _Prometheus text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.common.durable import make_dirs
from repro.common.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SchedTelemetry

__all__ = [
    "Sample",
    "prometheus_text",
    "parse_prometheus_text",
    "run_samples",
    "write_metrics_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"'
)


@dataclass(frozen=True)
class Sample:
    """One exposition sample: a metric name, labels, and a value."""

    name: str
    value: float
    labels: Mapping[str, str] = field(default_factory=dict)
    help: str = ""
    type: str = "gauge"          #: "gauge" | "counter" | "untyped"

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ReproError(f"invalid metric name {self.name!r}")
        for key in self.labels:
            if not _NAME_RE.match(key) or key.startswith("__"):
                raise ReproError(
                    f"invalid label name {key!r} on metric {self.name}"
                )


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(samples: Iterable[Sample]) -> str:
    """Render samples as a text-exposition document.

    Samples sharing a metric name are grouped under one ``# HELP`` /
    ``# TYPE`` header (the format requires contiguous metric families);
    within a family, sample order is preserved.
    """
    families: dict[str, list[Sample]] = {}
    for s in samples:
        families.setdefault(s.name, []).append(s)
    lines: list[str] = []
    for name, group in families.items():
        head = group[0]
        if head.help:
            lines.append(f"# HELP {name} {head.help}")
        lines.append(f"# TYPE {name} {head.type}")
        for s in group:
            if s.labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in s.labels.items()
                )
                lines.append(f"{name}{{{body}}} {_format_value(s.value)}")
            else:
                lines.append(f"{name} {_format_value(s.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> list[Sample]:
    """Parse a text-exposition document back into samples.

    Strict enough to serve as the validity check CI runs on a live
    scrape: every non-comment line must match the sample grammar, every
    ``# TYPE`` must name a known type, and a sample line must follow
    its family's header block (no interleaving).  Raises
    :class:`~repro.common.errors.ReproError` on the first violation.
    """
    samples: list[Sample] = []
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    seen_families: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name = parts[2]
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in (
                    "gauge", "counter", "histogram", "summary", "untyped"
                ):
                    raise ReproError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if name in types:
                    raise ReproError(
                        f"line {lineno}: duplicate TYPE for {name}"
                    )
                types[name] = kind
            elif len(parts) >= 3 and parts[1] == "HELP":
                helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ReproError(
                f"line {lineno}: not a valid exposition sample: {raw!r}"
            )
        name = m.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        labels: dict[str, str] = {}
        if m.group("labels"):
            body = m.group("labels").strip().rstrip(",")
            consumed = 0
            for lm in _LABEL_RE.finditer(body):
                labels[lm.group("key")] = lm.group("val")
                consumed = lm.end()
            leftover = body[consumed:].strip().strip(",").strip()
            if leftover:
                raise ReproError(
                    f"line {lineno}: malformed labels {body!r}"
                )
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ReproError(
                f"line {lineno}: non-numeric value {m.group('value')!r}"
            ) from None
        if not seen_families or seen_families[-1] != base:
            if base in seen_families:
                raise ReproError(
                    f"line {lineno}: samples of {base} are not contiguous"
                )
            seen_families.append(base)
        samples.append(
            Sample(
                name=name,
                value=value,
                labels=labels,
                help=helps.get(base, ""),
                type=types.get(base, "untyped"),
            )
        )
    return samples


# ----------------------------------------------------------------------
# sample builders

def _counter(name: str, value: float, help_: str, **labels: str) -> Sample:
    return Sample(name, float(value), labels, help=help_, type="counter")


def _gauge(name: str, value: float, help_: str, **labels: str) -> Sample:
    return Sample(name, float(value), labels, help=help_, type="gauge")


def run_samples(
    status: Mapping[str, Any] | None,
    telemetry: "SchedTelemetry",
    *,
    run_id: str | None,
    command: str,
    cache_stats: Mapping[str, Any] | None = None,
) -> list[Sample]:
    """The sample set of one supervised run, live or finished.

    Each series has one source.  ``status`` is the run directory's
    :func:`~repro.resilience.fleet.fleet_status` snapshot (None when the
    run has no directory: an unjournaled run after its merge, or a
    scrape before the directory exists), and the series it feeds are
    left out without it.  ``telemetry`` is what this process did, and
    ``cache_stats`` the open result cache's counters.
    """
    out = [
        _gauge(
            "repro_run_info", 1.0,
            "Run identity; value is always 1.",
            run_id=run_id or "", command=command, mode=telemetry.mode,
        ),
        _gauge(
            "repro_run_degraded", 1.0 if telemetry.degraded else 0.0,
            "1 when the run finished only through a degradation fallback.",
        ),
    ]
    if status is not None:
        out += [
            _gauge(
                "repro_jobs_total", status["jobs_total"],
                "Jobs in this run's manifest.",
            ),
            _counter(
                "repro_jobs_completed_total", status["jobs_completed"],
                "Manifest jobs journaled, cache hits and earlier "
                "invocations included.",
            ),
            _gauge(
                "repro_jobs_remaining", status["jobs_remaining"],
                "Manifest jobs not yet resolved.",
            ),
            _counter(
                "repro_quarantined_total", status["quarantined"],
                "Manifest jobs abandoned after retry exhaustion.",
            ),
            _counter(
                "repro_leases_acquired_total", status["leases_acquired"],
                "Fresh job leases claimed.",
            ),
            _counter(
                "repro_leases_stolen_total", status["leases_stolen"],
                "Stale or corrupt leases stolen from peers.",
            ),
            _counter(
                "repro_heartbeats_total", status["heartbeats"],
                "Lease heartbeats written.",
            ),
            _counter(
                "repro_flight_dumps_total", status["flight_dumps"],
                "Flight-recorder dumps written for this run.",
            ),
        ]
        out += [
            _counter(
                "repro_worker_jobs_completed_total", w["completed"],
                "Manifest jobs journaled per worker.",
                worker=w["worker"],
            )
            for w in status["workers"]
        ]
    out += [
        _counter(
            "repro_resume_skips_total", telemetry.resume_skips,
            "Jobs replayed from the run journal instead of executed.",
        ),
        _counter(
            "repro_retries_total", telemetry.retries,
            "Failed job attempts that were retried.",
        ),
        _counter(
            "repro_timeouts_total", telemetry.timeouts,
            "Jobs killed past their wall-clock budget.",
        ),
        _counter(
            "repro_worker_crashes_total", telemetry.crashes,
            "Worker processes that died without delivering a result.",
        ),
        _counter(
            "repro_job_errors_total", telemetry.job_errors,
            "Per-attempt job errors outside the crash/timeout classes.",
        ),
        _counter(
            "repro_fallbacks_total", len(telemetry.fallbacks),
            "Degradation-ladder steps taken (reference/in-process).",
        ),
        _gauge(
            "repro_fleet_workers", telemetry.fleet_workers,
            "Worker processes this invocation ran.",
        ),
        _counter(
            "repro_duplicate_completions_total",
            telemetry.duplicate_completions,
            "Jobs completed by more than one worker.",
        ),
    ]
    if cache_stats is not None:
        out += [
            _counter(
                f"repro_cache_{key}_total", float(cache_stats.get(key, 0)),
                f"Result-cache {key}.",
            )
            for key in ("hits", "misses", "stores", "quarantines")
        ]
    return out


def write_metrics_text(path: str | Path, samples: Iterable[Sample]) -> Path:
    """Write an exposition document; returns the path written."""
    path = Path(path)
    make_dirs(path.parent)
    path.write_text(prometheus_text(samples))
    return path
