"""Conformance engine over live runs (``repro.check.engine``)."""

import pytest

from repro.check import check_all, check_benchmark, load_claim_file
from repro.common.errors import ReproError

FAST_SPEC = """
schema = "repro-claims/1"
benchmark = "MemAlign"
source = "Table I"

[run]
n = 65536

[[claims]]
kind = "speedup"
min = 1.0
max = 1.2

[[claims]]
kind = "verified"

[[claims]]
kind = "metric"
key = "misaligned_transactions_per_request"
min = 1.99
max = 2.01
"""

BROKEN_SPEC = FAST_SPEC.replace("min = 1.0\nmax = 1.2", "min = 50.0")


def spec_from(tmp_path, body, name="memalign.toml"):
    path = tmp_path / name
    path.write_text(body)
    return load_claim_file(path)


class TestCheckBenchmark:
    def test_conforming_benchmark_passes(self, tmp_path):
        outcomes = check_benchmark(spec_from(tmp_path, FAST_SPEC))
        assert outcomes
        assert all(o.passed for o in outcomes), [
            str(o) for o in outcomes if not o.passed
        ]
        kinds = {o.kind for o in outcomes}
        # claims evaluated AND the run's metrics audited
        assert {"claim", "invariant", "structure"} <= kinds

    def test_impossible_claim_fails_pointedly(self, tmp_path):
        outcomes = check_benchmark(spec_from(tmp_path, BROKEN_SPEC))
        bad = [o for o in outcomes if not o.passed]
        assert len(bad) == 1
        assert bad[0].name == "speedup"
        assert ">= 50" in bad[0].detail

    def test_quick_with_only_slow_claims_skips_run(self, tmp_path):
        slow = FAST_SPEC.replace(
            'kind = "speedup"', 'kind = "speedup"\nslow = true'
        ).replace(
            'kind = "verified"', 'kind = "verified"\nslow = true'
        ).replace(
            'kind = "metric"', 'kind = "metric"\nslow = true'
        )
        assert check_benchmark(spec_from(tmp_path, slow), quick=True) == []

    def test_backend_recorded_on_outcomes(self, tmp_path):
        outcomes = check_benchmark(spec_from(tmp_path, FAST_SPEC), backend="jit")
        assert outcomes and all(o.backend == "jit" for o in outcomes)


class TestCheckAll:
    def test_unknown_benchmark_name_raises(self, tmp_path):
        (tmp_path / "m.toml").write_text(FAST_SPEC)
        with pytest.raises(ReproError, match="no claim file for: Nope"):
            check_all(
                benchmarks=["Nope"], claims_dir=str(tmp_path), relations=False
            )

    def test_single_benchmark_single_backend(self, tmp_path):
        (tmp_path / "m.toml").write_text(FAST_SPEC)
        report = check_all(
            benchmarks=["MemAlign"],
            claims_dir=str(tmp_path),
            backend="reference",
            relations=False,
        )
        assert report.ok and report.outcomes

    def test_both_backends_by_default(self, tmp_path):
        (tmp_path / "m.toml").write_text(FAST_SPEC)
        report = check_all(claims_dir=str(tmp_path), relations=False)
        assert {o.backend for o in report.outcomes} == {"reference", "jit"}
