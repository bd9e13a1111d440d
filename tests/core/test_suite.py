"""Suite runner and Table I rendering (scaled-down end-to-end run)."""

import gc
import weakref

import pytest

import repro.core.suite as suite_module
from repro.core.registry import ALL_BENCHMARKS
from repro.core.suite import SuiteReport, run_suite

#: small parameters so the full 14-benchmark suite runs in test time
FAST_OVERRIDES = {
    "WarpDivRedux": dict(n=1 << 16),
    "DynParallel": dict(size=128, max_dwell=64),
    "Conkernels": dict(rounds=16),
    "TaskGraph": dict(chain_len=4, iterations=5, n=2048),
    "Shmem": dict(n=64),
    "CoMem": dict(n=1 << 19),
    "MemAlign": dict(n=1 << 18),
    "GSOverlap": dict(n=1 << 18),
    "Shuffle": dict(n=1 << 18),
    "BankRedux": dict(n=1 << 16),
    "HDOverlap": dict(n=1 << 18),
    "ReadOnlyMem": dict(n=256),
    "UniMem": dict(n=1 << 20, stride=1 << 14),
    "MiniTransfer": dict(n=256, nnz=1024),
}


@pytest.fixture(scope="module")
def report() -> SuiteReport:
    return run_suite(overrides=FAST_OVERRIDES)


class TestRunSuite:
    def test_all_ran(self, report):
        assert len(report.results) == 14

    def test_all_verified(self, report):
        bad = [r.benchmark for r in report.results if not r.verified]
        assert not bad, f"functional mismatch in: {bad}"

    def test_optimizations_win_where_paper_says(self, report):
        # every benchmark except the scale-sensitive ones should show the
        # optimized version winning even at test scale
        expected_winners = {
            "WarpDivRedux", "Conkernels", "TaskGraph", "Shmem", "CoMem",
            "MemAlign", "Shuffle", "BankRedux", "HDOverlap", "ReadOnlyMem",
            "MiniTransfer",
        }
        for r in report.results:
            if r.benchmark in expected_winners:
                assert r.speedup > 1.0, f"{r.benchmark}: {r.speedup}"


class TestRender:
    def test_table_mentions_every_benchmark(self, report):
        out = report.render()
        for cls in ALL_BENCHMARKS:
            assert cls.name in out

    def test_table_shows_measured_and_paper(self, report):
        out = report.render()
        assert "paper speedup" in out
        assert "measured" in out
        assert "x" in out


class TestRowMemory:
    def test_a_finished_row_is_freed_before_the_next_starts(self, monkeypatch):
        """A row's runtime sits in reference cycles; the suite collects
        them after the row instead of leaving them to the collector's
        own schedule, which would make the peak depend on the caller."""
        rows = []

        class Node:
            pass

        class Cyclic:
            name = "Cyclic"

            def __init__(self, system):
                pass

            def run(self):
                node = Node()
                node.self = node  # like a runtime and its streams
                rows.append(weakref.ref(node))
                return "cyclic"

        class Probe:
            name = "Probe"

            def __init__(self, system):
                pass

            def run(self):
                return rows[0]() is None

        monkeypatch.setattr(suite_module, "ALL_BENCHMARKS", [Cyclic, Probe])
        enabled = gc.isenabled()
        gc.disable()
        try:
            report = run_suite()
        finally:
            if enabled:
                gc.enable()
        assert report.results == ["cyclic", True]
