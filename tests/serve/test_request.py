"""Request validation and idempotency fingerprints."""

import pytest

from repro.serve.request import (
    BadRequest,
    parse_request,
    request_fingerprint,
)


def sweep_doc(**over):
    doc = {"kind": "sweep", "benchmark": "MemAlign", "values": [4096, 8192]}
    doc.update(over)
    return doc


class TestValidation:
    def test_minimal_sweep_parses(self):
        req = parse_request(sweep_doc())
        assert req.kind == "sweep"
        assert req.benchmark == "MemAlign"
        assert req.values == [4096, 8192]
        assert len(req.fingerprint) == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequest, match="unknown kind"):
            parse_request({"kind": "explode"})

    def test_non_object_body_rejected(self):
        with pytest.raises(BadRequest, match="JSON object"):
            parse_request([1, 2, 3])

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown request field"):
            parse_request(sweep_doc(surprise=1))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(BadRequest, match="unknown benchmark"):
            parse_request(sweep_doc(benchmark="NotABench"))

    def test_sweep_needs_values(self):
        with pytest.raises(BadRequest, match="non-empty 'values'"):
            parse_request({"kind": "sweep", "benchmark": "MemAlign"})

    def test_sweep_values_must_be_numbers(self):
        for bad in ("big", 8192.0):
            with pytest.raises(BadRequest, match="is not an integer"):
                parse_request(sweep_doc(values=[4096, bad]))

    def test_values_rejected_on_run(self):
        with pytest.raises(BadRequest, match="only applies to sweep"):
            parse_request(
                {"kind": "run", "benchmark": "MemAlign", "values": [1]}
            )

    def test_params_must_be_scalars(self):
        with pytest.raises(BadRequest, match="not a scalar"):
            parse_request(sweep_doc(params={"n": [1, 2]}))

    def test_unknown_backend_rejected(self):
        with pytest.raises(BadRequest, match="unknown backend"):
            parse_request(sweep_doc(backend="magic"))
        with pytest.raises(BadRequest, match="unknown backend"):
            parse_request(sweep_doc(backend="fast"))  # retired
        with pytest.raises(BadRequest, match="unknown backend"):
            parse_request({"kind": "check", "backend": "all"})  # retired

    def test_check_allows_both_backend(self):
        req = parse_request({"kind": "check", "backend": "both"})
        assert req.backend == "both"

    def test_run_rejects_both_backend(self):
        with pytest.raises(BadRequest, match="unknown backend"):
            parse_request(
                {"kind": "run", "benchmark": "MemAlign", "backend": "both"}
            )

    def test_unknown_system_rejected(self):
        with pytest.raises(BadRequest):
            parse_request(sweep_doc(system="crayon"))

    def test_deadline_must_be_positive_int(self):
        with pytest.raises(BadRequest, match="deadline_ms"):
            parse_request(sweep_doc(deadline_ms=-5))
        with pytest.raises(BadRequest, match="deadline_ms"):
            parse_request(sweep_doc(deadline_ms=True))

    def test_benchmarks_only_on_check(self):
        with pytest.raises(BadRequest, match="only applies to check"):
            parse_request(sweep_doc(benchmarks=["MemAlign"]))

    def test_bad_client_id_rejected(self):
        with pytest.raises(BadRequest, match="X-Client-Id"):
            parse_request(sweep_doc(), client="space cadet!")

    def test_bad_idempotency_key_rejected(self):
        with pytest.raises(BadRequest, match="Idempotency-Key"):
            parse_request(sweep_doc(), idempotency_key="a" * 200)


class TestFingerprints:
    def test_same_request_same_fingerprint(self):
        a = parse_request(sweep_doc())
        b = parse_request(sweep_doc())
        assert a.fingerprint == b.fingerprint

    def test_different_values_different_fingerprint(self):
        a = parse_request(sweep_doc())
        b = parse_request(sweep_doc(values=[4096]))
        assert a.fingerprint != b.fingerprint

    def test_kind_distinguishes_fingerprint(self):
        run = parse_request({"kind": "run", "benchmark": "MemAlign"})
        prof = parse_request({"kind": "profile", "benchmark": "MemAlign"})
        assert run.fingerprint != prof.fingerprint

    def test_user_key_overrides(self):
        req = parse_request(sweep_doc(), idempotency_key="my-key-1")
        assert req.fingerprint == "user-my-key-1"

    def test_check_fingerprint_covers_quick(self):
        a = parse_request({"kind": "check", "quick": True})
        b = parse_request({"kind": "check"})
        assert a.fingerprint != b.fingerprint

    def test_check_fingerprint_covers_claim_text(self, tmp_path, monkeypatch):
        # a served check reads the claims under its working directory
        import shutil

        shutil.copytree("benchmarks/claims", tmp_path / "benchmarks/claims")
        monkeypatch.chdir(tmp_path)
        doc = {"kind": "check", "benchmarks": ["MemAlign"]}
        before = parse_request(doc).fingerprint
        claims = tmp_path / "benchmarks/claims/memalign.toml"
        claims.write_text(claims.read_text() + "# edited\n")
        assert parse_request(doc).fingerprint != before

    def test_unreadable_claims_fail_admission(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(BadRequest, match="claims directory not found"):
            parse_request({"kind": "check"})

    @pytest.mark.parametrize("doc", [
        {"kind": "run", "benchmark": "MemAlign"},
        sweep_doc(),
        {"kind": "profile", "benchmark": "MemAlign"},
        {"kind": "check", "benchmarks": ["MemAlign"]},
    ], ids=lambda doc: doc["kind"])
    def test_model_changes_fingerprint(self, doc, monkeypatch):
        before = parse_request(doc).fingerprint
        monkeypatch.setattr("repro.sched.cache.model_digest", lambda: "0" * 64)
        assert parse_request(doc).fingerprint != before

    def test_fingerprint_function_matches_parse(self):
        req = parse_request(sweep_doc())
        assert request_fingerprint(req) == req.fingerprint


class TestJobSpecs:
    def test_sweep_decomposes_one_job_per_value(self):
        specs = parse_request(sweep_doc()).job_specs()
        assert [s.params for s in specs] == [{"n": 4096}, {"n": 8192}]
        assert all(s.kind == "run" for s in specs)

    def test_run_is_one_job(self):
        specs = parse_request(
            {"kind": "run", "benchmark": "MemAlign"}
        ).job_specs()
        assert len(specs) == 1
        assert specs[0].kind == "run"
