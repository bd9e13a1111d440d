"""``repro.obs`` — the cross-process observability plane.

Four pieces, built on the activity hub of :mod:`repro.prof` and the
run journals of :mod:`repro.resilience`:

* **distributed tracing** (:mod:`~repro.obs.trace`,
  :mod:`~repro.obs.stitch`) — workers publish each job's activity
  under its fingerprint, and the stitcher lays it out as one Chrome
  trace with per-worker lanes, deriving deterministic
  :class:`~repro.obs.trace.TraceContext` span ids from the run id and
  the manifest;
* **live monitoring** (:mod:`~repro.obs.top`) — ``repro top``, a
  read-only view of the snapshot
  :func:`~repro.resilience.fleet.fleet_status` reads from a run
  directory;
* **metrics exposition** (:mod:`~repro.obs.metrics`,
  :mod:`~repro.obs.server`) — one Prometheus text-format sample set,
  :func:`~repro.obs.metrics.run_samples`, over the ``fleet_status``
  snapshot, the scheduler telemetry and the result cache, written as a
  ``--metrics`` sidecar or served live on ``--metrics-port``;
* **flight recorder** (:mod:`~repro.obs.flight`) — a bounded ring of
  recent activity per worker, dumped atomically on the way down.

See ``docs/observability.md`` for the trace model, the metric name
registry, and the flight-recorder dump format.
"""

from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FLIGHT_FORMAT,
    FlightRecorder,
    list_flight_dumps,
    read_flight_dump,
)
from repro.obs.metrics import (
    Sample,
    parse_prometheus_text,
    prometheus_text,
    run_samples,
    write_metrics_text,
)
from repro.obs.server import MetricsServer
from repro.obs.stitch import (
    ActivitySink,
    fleet_chrome_trace,
    read_worker_activity,
    write_fleet_trace,
)
from repro.obs.top import render_fleet_status
from repro.obs.trace import (
    ROOT_SPAN_KEY,
    TraceContext,
    job_span_key,
    trace_id_for_run,
)
from repro.resilience.fleet import fleet_status

__all__ = [
    # trace
    "TraceContext",
    "trace_id_for_run",
    "job_span_key",
    "ROOT_SPAN_KEY",
    # stitch
    "ActivitySink",
    "read_worker_activity",
    "fleet_chrome_trace",
    "write_fleet_trace",
    # metrics
    "Sample",
    "prometheus_text",
    "parse_prometheus_text",
    "run_samples",
    "write_metrics_text",
    "MetricsServer",
    # flight recorder
    "FlightRecorder",
    "FLIGHT_FORMAT",
    "DEFAULT_CAPACITY",
    "read_flight_dump",
    "list_flight_dumps",
    # live monitoring
    "fleet_status",
    "render_fleet_status",
]
