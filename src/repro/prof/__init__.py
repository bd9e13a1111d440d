"""repro.prof — the CUPTI-analog observability subsystem.

Activity records and the subscriber hub (:mod:`repro.prof.activity`),
exporters (Chrome trace, NDJSON, metrics JSON), analysis passes
(roofline classification, run-to-run diffing), and the ambient
:func:`profile_session` that wires a whole benchmark run together.
"""

from repro.prof.activity import KINDS, ActivityHub, ActivityLog, ActivityRecord
from repro.prof.chrome import chrome_trace, write_chrome_trace
from repro.prof.diff import (
    DEFAULT_METRIC_TOLERANCE,
    DEFAULT_TIME_TOLERANCE,
    DiffEntry,
    DiffReport,
    diff_metrics,
    document_backend,
)
from repro.prof.metrics import (
    BENCH_SCHEMA,
    METRICS_SCHEMA,
    collect_metrics,
    gpu_info,
    kernel_entry,
    load_metrics,
    merge_metrics,
    validate_document,
    render_metrics,
    write_metrics,
)
from repro.prof.ndjson import read_ndjson, record_to_json, write_ndjson
from repro.prof.roofline import RooflinePoint, classify_kernel, peak_lane_ops, render_roofline
from repro.prof.session import Profiler, profile_session

__all__ = [
    "KINDS",
    "ActivityHub",
    "ActivityLog",
    "ActivityRecord",
    "chrome_trace",
    "write_chrome_trace",
    "DEFAULT_METRIC_TOLERANCE",
    "DEFAULT_TIME_TOLERANCE",
    "DiffEntry",
    "DiffReport",
    "diff_metrics",
    "document_backend",
    "BENCH_SCHEMA",
    "METRICS_SCHEMA",
    "collect_metrics",
    "gpu_info",
    "kernel_entry",
    "load_metrics",
    "merge_metrics",
    "validate_document",
    "render_metrics",
    "write_metrics",
    "read_ndjson",
    "record_to_json",
    "write_ndjson",
    "RooflinePoint",
    "classify_kernel",
    "peak_lane_ops",
    "render_roofline",
    "Profiler",
    "profile_session",
]
