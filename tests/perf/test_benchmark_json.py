"""BENCHMARK.json and the benchmark's spec.json agree with each other and the code."""

import json
import re
from pathlib import Path

from benchmarks.perf.layers import layer_metrics
from benchmarks.perf.workloads import TABLE1, WORKLOADS
from repro.core.registry import list_benchmarks

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "benchmarks" / "perf" / "spec.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["paths"] == ["benchmarks/perf", "tests/perf"]
    for path in BENCH["paths"]:
        assert (ROOT / path).is_dir()
    assert BENCH["command"][0] == "python3"
    assert (ROOT / BENCH["command"][1]).is_file()
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60


def test_names_units_and_counts():
    workloads = BENCH["workloads"]
    # serve-hits is left out: its run-to-run spread follows the host's
    # disk and exceeds every bound the format allows (see the README)
    assert [w["name"] for w in workloads] == list(TABLE1)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e, layer = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in (*workloads, *e2e, *layer)]
    assert len(names) == len(set(names))
    for m in (*e2e, *layer):
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layer:
        assert set(m) == {"name", "unit", "better"}


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_serve_latencies_are_end_to_end_metrics_of_their_own():
    serve = SPEC["serve_end_to_end"]
    assert [m["name"] for m in serve] == ["req_p50_ms", "req_p99_ms"]
    assert not {m["name"] for m in serve} & {m["name"] for m in BENCH["end_to_end"]}
    for m in serve:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert 0 < m["bound"] <= 0.25


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m["name"] for m in (*BENCH["end_to_end"], *SPEC["serve_end_to_end"])}
    layer = [m["name"] for m in BENCH["per_layer"]]
    moves = SPEC["per_layer"]
    assert sorted(moves) == sorted(layer)
    for name, entry in moves.items():
        assert set(entry) == {"metrics", "workloads", "why"}, name
        assert entry["metrics"] and set(entry["metrics"]) <= e2e, name
        assert entry["workloads"] and set(entry["workloads"]) <= set(WORKLOADS), name


def test_layer_aggregation_produces_exactly_the_declared_metrics():
    produced = set(layer_metrics([], 1, SPEC["golden"]["table1_rows"]))
    produced |= {"unattributed_s", "trace_overhead_frac"}
    assert produced == {m["name"] for m in BENCH["per_layer"]}


def test_golden_digests_cover_table1_and_every_serve_point():
    rows = SPEC["golden"]["table1_rows"]
    assert list(rows) == list_benchmarks()
    assert set(SPEC["table1_sizes"]) <= set(rows)
    served = SPEC["golden"]["serve_results"]
    assert list(served) == [f"{b}:{v}" for b, v in SPEC["serve_points"]]
    for digest in (*rows.values(), *served.values()):
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
