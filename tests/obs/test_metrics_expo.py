"""Prometheus text exposition: rendering, parsing, sample builders."""

import pytest

from repro.common.errors import ReproError
from repro.obs import (
    Sample,
    fleet_samples,
    parse_prometheus_text,
    prometheus_text,
    telemetry_samples,
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


class TestTelemetrySamples:
    def test_registry_prefix_and_core_names(self):
        tele = SchedTelemetry(mode="fleet", completed=3, retries=1)
        samples = telemetry_samples(
            tele, run_id="r1", command="sweep", jobs_total=4,
            jobs_remaining=1,
        )
        names = {s.name for s in samples}
        assert all(n.startswith("repro_") for n in names)
        assert {
            "repro_run_info", "repro_jobs_completed_total",
            "repro_retries_total", "repro_jobs_total",
            "repro_jobs_remaining", "repro_run_degraded",
        } <= names

    def test_fleet_counters_gated_on_workers(self):
        lean = telemetry_samples(SchedTelemetry())
        full = telemetry_samples(SchedTelemetry(fleet_workers=2))
        assert "repro_fleet_workers" not in {s.name for s in lean}
        assert "repro_fleet_workers" in {s.name for s in full}

    def test_cache_and_flight_sections(self):
        samples = telemetry_samples(
            SchedTelemetry(),
            cache_stats={"hits": 2, "misses": 1, "stores": 1, "quarantines": 0},
            flight_dumps=3,
        )
        by_name = {s.name: s.value for s in samples}
        assert by_name["repro_cache_hits_total"] == 2
        assert by_name["repro_flight_dumps_total"] == 3

    def test_output_is_valid_exposition(self):
        tele = SchedTelemetry(mode="fleet", completed=1)
        parse_prometheus_text(prometheus_text(telemetry_samples(tele)))


class TestFleetSamples:
    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no fleet run directory"):
            fleet_samples(tmp_path / "ghost.fleet", run_id="ghost")


class TestWrite:
    def test_write_creates_parents(self, tmp_path):
        path = write_metrics_text(
            tmp_path / "deep" / "m.prom", [Sample("repro_x", 1)]
        )
        assert path.read_text() == prometheus_text([Sample("repro_x", 1)])
