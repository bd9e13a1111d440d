"""Golden baselines: every committed result document validates and wins.

The repo commits the regenerated figure/table documents under
``benchmarks/results/`` plus the Table I summary at the repo root.
These tests pin them: each must pass :func:`validate_document`, and the
Table I rows must show the paper's direction (speedup > 1) for all
fourteen benchmarks.
"""

import json
from pathlib import Path

import pytest

from repro.core.registry import list_benchmarks
from repro.prof.metrics import BENCH_SCHEMA, load_metrics, validate_document

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = sorted((REPO_ROOT / "benchmarks" / "results").glob("*.json"))
TABLE1 = REPO_ROOT / "BENCH_table1.json"


@pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.name)
def test_committed_results_validate(path):
    doc = load_metrics(path)
    problems = validate_document(doc)
    assert not problems, f"{path.name}: {problems}"


def test_results_directory_not_empty():
    assert RESULTS, "no committed baseline documents found"


class TestTable1Baseline:
    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(TABLE1.read_text())

    def test_validates(self, doc):
        assert doc["schema"] == BENCH_SCHEMA
        assert validate_document(doc) == []

    def test_all_fourteen_present(self, doc):
        names = [r["benchmark"] for r in doc["results"]]
        assert sorted(names) == sorted(list_benchmarks())

    def test_every_optimization_wins(self, doc):
        losers = {
            r["benchmark"]: r["speedup"]
            for r in doc["results"]
            if not r["speedup"] > 1.0
        }
        assert not losers, f"Table I rows without a speedup: {losers}"

    def test_all_verified(self, doc):
        assert doc["all_verified"] is True
        assert all(r["verified"] for r in doc["results"])


def test_validate_rejects_unknown_schema():
    assert validate_document({"schema": "bogus/1"}) != []
    assert validate_document([1, 2]) != []


def test_validate_flags_truncated_series():
    doc = {
        "schema": BENCH_SCHEMA,
        "sweep": {"x_name": "n", "x_values": [1, 2], "series": {"s": [0.5]}},
    }
    assert any("series" in p for p in validate_document(doc))


class TestJitGoldenDocument:
    """The committed jit-produced metrics document stays valid.

    ``benchmarks/results/jit_memalign_metrics.json`` was produced by
    ``repro profile MemAlign --backend jit --json ...`` and pins the
    jit backend's export format: the backend stamp, the jit life-cycle
    counters, and compatibility with the offline conformance audit.
    """

    PATH = REPO_ROOT / "benchmarks" / "results" / "jit_memalign_metrics.json"

    @pytest.fixture(scope="class")
    def doc(self):
        return load_metrics(self.PATH)

    def test_backend_stamped_jit(self, doc):
        from repro.prof import document_backend

        assert document_backend(doc) == "jit"

    def test_jit_lifecycle_counters_present(self, doc):
        execution = doc["execution"]
        for key in ("jit_traced", "jit_compiled", "jit_replayed",
                    "jit_bailouts", "jit_untraceable"):
            assert key in execution, f"missing {key}"
        assert execution["jit_traced"] > 0
        assert execution["jit_compiled"] > 0
        assert execution["jit_bailouts"] == 0

    def test_offline_check_passes(self):
        from repro.__main__ import main

        assert main(["check", "--doc", str(self.PATH)]) == 0


@pytest.mark.parametrize(
    "path",
    [REPO_ROOT / "BENCH_jit_throughput.json",
     REPO_ROOT / "benchmarks" / "results" / "jit_throughput.json"],
    ids=lambda p: p.name,
)
def test_jit_throughput_names_both_backends(path):
    # it times reference against jit, so neither backend alone made it
    assert load_metrics(path)["backend"] == "reference+jit"
