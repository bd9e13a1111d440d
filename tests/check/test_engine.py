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


class TestSupervisedUnits:
    """``check`` units climb the scheduler's supervision ladder."""

    def _check(self, tmp_path, resilience=None):
        (tmp_path / "m.toml").write_text(FAST_SPEC)
        return check_all(
            claims_dir=str(tmp_path), relations=False, resilience=resilience
        )

    def test_crashed_units_retry_to_the_unsupervised_report(self, tmp_path):
        from repro.resilience import ResilienceConfig, parse_chaos

        clean = self._check(tmp_path)
        config = ResilienceConfig(
            chaos=parse_chaos("crash=1.0,max-fault-attempts=1")
        )
        report = self._check(tmp_path, config)
        assert report.as_dict() == clean.as_dict()
        # one unit per backend, each crashing once before it runs clean
        assert config.telemetry.crashes == config.telemetry.retries == 2

    def test_interrupted_pass_resumes_to_the_same_report(self, tmp_path):
        from repro.resilience import ResilienceConfig, parse_chaos

        clean = self._check(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            self._check(tmp_path, ResilienceConfig(
                run_id="c1", journal_root=tmp_path / "jd",
                chaos=parse_chaos("interrupt-after=1"),
            ))
        # one run format: the run directory, never a single-file journal
        assert (tmp_path / "jd" / "c1.fleet").is_dir()
        assert not list((tmp_path / "jd").glob("*.ndjson"))
        config = ResilienceConfig(run_id="c1", journal_root=tmp_path / "jd")
        report = self._check(tmp_path, config)
        assert report.as_dict() == clean.as_dict()
        assert config.telemetry.resume_skips == 1
        assert config.telemetry.completed == 1

    def test_supervised_and_resumed_reports_match_unsupervised(self, tmp_path):
        from repro.resilience import ResilienceConfig, parse_chaos

        def both(report):
            return report.as_dict(), report.render()

        clean = both(self._check(tmp_path))
        assert both(self._check(tmp_path, ResilienceConfig())) == clean
        journal = tmp_path / "jd"
        with pytest.raises(KeyboardInterrupt):
            self._check(tmp_path, ResilienceConfig(
                run_id="p1", journal_root=journal,
                chaos=parse_chaos("interrupt-after=1"),
            ))
        config = ResilienceConfig(run_id="p1", journal_root=journal)
        assert both(self._check(tmp_path, config)) == clean
        assert config.telemetry.mode == "serial"

    def test_diverge_chaos_never_touches_a_check_unit(self, tmp_path):
        from repro.resilience import ResilienceConfig, parse_chaos

        config = ResilienceConfig(chaos=parse_chaos("diverge=0;1"))
        report = self._check(tmp_path, config)
        assert report.ok
        assert config.telemetry.fallbacks == []
        assert not config.telemetry.degraded

    def test_edited_claim_file_reruns_its_unit_on_resume(self, tmp_path):
        from repro.resilience import ResilienceConfig

        claims = tmp_path / "m.toml"
        claims.write_text(FAST_SPEC)

        def check(run_id):
            config = ResilienceConfig(
                run_id=run_id, journal_root=tmp_path / "jd"
            )
            report = check_all(
                claims_dir=str(tmp_path), backend="reference",
                relations=False, resilience=config,
            )
            return report, config.telemetry

        report, tele = check("r1")
        assert report.ok and tele.completed == 1
        claims.write_text(BROKEN_SPEC)
        report, tele = check("r1")
        # the job carries the claim text: no stale verdict is replayed
        assert (tele.resume_skips, tele.completed) == (0, 1)
        assert not report.ok
        assert [o.name for o in report.outcomes if not o.passed] == ["speedup"]
