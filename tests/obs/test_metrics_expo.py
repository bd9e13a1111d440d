"""Prometheus text exposition: rendering, parsing, sample builders."""

import pytest

from repro.common.errors import ReproError
from repro.obs import (
    Sample,
    parse_prometheus_text,
    prometheus_text,
    run_samples,
    write_metrics_text,
)
from repro.resilience.supervisor import SchedTelemetry


class TestSample:
    def test_bad_metric_name_rejected(self):
        with pytest.raises(ReproError, match="invalid metric name"):
            Sample("bad name", 1.0)

    def test_bad_label_name_rejected(self):
        with pytest.raises(ReproError, match="invalid label name"):
            Sample("ok", 1.0, {"bad-label": "x"})

    def test_reserved_label_rejected(self):
        with pytest.raises(ReproError, match="invalid label name"):
            Sample("ok", 1.0, {"__reserved": "x"})


class TestRender:
    def test_help_type_and_sample_lines(self):
        text = prometheus_text([
            Sample("repro_x_total", 3, help="Things.", type="counter"),
        ])
        assert "# HELP repro_x_total Things." in text
        assert "# TYPE repro_x_total counter" in text
        assert "repro_x_total 3" in text
        assert text.endswith("\n")

    def test_labels_rendered_and_escaped(self):
        text = prometheus_text([
            Sample("repro_info", 1, {"run": 'a"b\\c'}),
        ])
        assert r'run="a\"b\\c"' in text

    def test_family_grouped_once(self):
        text = prometheus_text([
            Sample("repro_w", 1, {"worker": "a"}, type="counter"),
            Sample("repro_w", 2, {"worker": "b"}, type="counter"),
        ])
        assert text.count("# TYPE repro_w counter") == 1

    def test_value_formats(self):
        text = prometheus_text([
            Sample("a", 2.0), Sample("b", 0.25),
            Sample("c", float("nan")), Sample("d", float("inf")),
        ])
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == ["a 2", "b 0.25", "c NaN", "d +Inf"]


class TestParse:
    def test_round_trip(self):
        samples = [
            Sample("repro_run_info", 1, {"run_id": "r1"}, help="h", type="gauge"),
            Sample("repro_jobs_completed_total", 4, type="counter"),
        ]
        back = parse_prometheus_text(prometheus_text(samples))
        assert [(s.name, s.value, dict(s.labels)) for s in back] == [
            (s.name, s.value, dict(s.labels)) for s in samples
        ]

    def test_rejects_garbage_line(self):
        with pytest.raises(ReproError, match="line 1"):
            parse_prometheus_text("!!! not metrics\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ReproError, match="unknown metric type"):
            parse_prometheus_text("# TYPE x widget\nx 1\n")

    def test_rejects_non_contiguous_family(self):
        with pytest.raises(ReproError, match="not contiguous"):
            parse_prometheus_text("a 1\nb 2\na 3\n")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ReproError, match="non-numeric"):
            parse_prometheus_text("a one\n")


def snapshot(**counts):
    """A ``fleet_status`` snapshot: zero counts unless given."""
    doc = dict.fromkeys((
        "jobs_total", "jobs_completed", "jobs_remaining", "quarantined",
        "leases_acquired", "leases_stolen", "heartbeats", "flight_dumps",
    ), 0)
    return {**doc, "workers": [], **counts}


#: the series ``run_samples`` reads from the snapshot
STATUS_SERIES = {
    "repro_jobs_total", "repro_jobs_completed_total",
    "repro_jobs_remaining", "repro_quarantined_total",
    "repro_leases_acquired_total", "repro_leases_stolen_total",
    "repro_heartbeats_total", "repro_flight_dumps_total",
    "repro_worker_jobs_completed_total",
}


class TestTelemetrySamples:
    def test_registry_prefix_and_core_names(self):
        tele = SchedTelemetry(mode="fleet", completed=3, retries=1)
        samples = run_samples(
            snapshot(jobs_total=4, jobs_completed=3, jobs_remaining=1),
            tele, run_id="r1", command="sweep",
        )
        names = {s.name for s in samples}
        assert all(n.startswith("repro_") for n in names)
        assert {
            "repro_run_info", "repro_jobs_completed_total",
            "repro_retries_total", "repro_jobs_total",
            "repro_jobs_remaining", "repro_run_degraded",
        } <= names

    def test_cache_and_flight_sections(self):
        samples = run_samples(
            snapshot(flight_dumps=3), SchedTelemetry(),
            run_id="r1", command="sweep",
            cache_stats={"hits": 2, "misses": 1, "stores": 1, "quarantines": 0},
        )
        by_name = {s.name: s.value for s in samples}
        assert by_name["repro_cache_hits_total"] == 2
        assert by_name["repro_flight_dumps_total"] == 3

    def test_output_is_valid_exposition(self):
        tele = SchedTelemetry(mode="fleet", completed=1)
        workers = [{"worker": "w0", "completed": 1}]
        parse_prometheus_text(prometheus_text(run_samples(
            snapshot(workers=workers), tele, run_id=None, command="",
        )))


class TestRunSamples:
    def test_each_series_has_one_source(self):
        # this invocation executed nothing and saw no lease; the run
        # directory holds two journaled jobs and a quarantined one
        tele = SchedTelemetry(mode="serial", fleet_workers=2, retries=1)
        status = snapshot(
            jobs_total=3, jobs_completed=2, quarantined=1,
            leases_acquired=5, heartbeats=7,
            workers=[{"worker": "w0", "completed": 2}],
        )
        samples = run_samples(
            status, tele, run_id="r1", command="sweep", cache_stats={},
        )
        by_name = {s.name: s for s in samples}
        assert by_name["repro_jobs_completed_total"].value == 2
        assert by_name["repro_quarantined_total"].value == 1
        assert by_name["repro_leases_acquired_total"].value == 5
        assert by_name["repro_heartbeats_total"].value == 7
        assert by_name["repro_retries_total"].value == 1
        assert by_name["repro_fleet_workers"].value == 2
        assert by_name["repro_cache_hits_total"].value == 0
        worker = by_name["repro_worker_jobs_completed_total"]
        assert (dict(worker.labels), worker.value) == ({"worker": "w0"}, 2)
        assert dict(by_name["repro_run_info"].labels) == {
            "run_id": "r1", "command": "sweep", "mode": "serial",
        }

    def test_status_series_need_a_snapshot(self):
        tele = SchedTelemetry()
        with_dir = {
            s.name for s in run_samples(
                snapshot(workers=[{"worker": "w0", "completed": 0}]), tele,
                run_id="r1", command="sweep",
            )
        }
        without = {
            s.name for s in run_samples(None, tele, run_id="r1", command="")
        }
        assert with_dir - without == STATUS_SERIES
        assert not without & STATUS_SERIES
        # the telemetry series are always there, idle workers included
        assert "repro_fleet_workers" in without
        assert not any(n.startswith("repro_cache_") for n in with_dir)


class TestWrite:
    def test_write_creates_parents(self, tmp_path):
        path = write_metrics_text(
            tmp_path / "deep" / "m.prom", [Sample("repro_x", 1)]
        )
        assert path.read_text() == prometheus_text([Sample("repro_x", 1)])
