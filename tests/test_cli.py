"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import _parse_params, build_parser, main


class TestParseParams:
    def test_int(self):
        assert _parse_params(["n=1024"]) == {"n": 1024}

    def test_hex_and_float(self):
        assert _parse_params(["n=0x10", "a=2.5"]) == {"n": 16, "a": 2.5}

    def test_string_fallback(self):
        assert _parse_params(["mode=fast"]) == {"mode": "fast"}

    def test_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CoMem" in out and "MiniTransfer" in out

    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100" in out and "Tesla K80" in out

    def test_run_small(self, capsys):
        rc = main(["run", "MemAlign", "-p", "n=65536"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MemAlign" in out
        assert "metrics:" in out

    def test_run_with_system(self, capsys):
        rc = main(["run", "MemAlign", "--system", "carina", "-p", "n=65536"])
        assert rc == 0

    def test_run_unknown_benchmark(self, capsys):
        assert main(["run", "NoSuchBench"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_system(self, capsys):
        assert main(["run", "MemAlign", "--system", "laptop"]) == 2

    def test_sweep(self, capsys):
        rc = main(["sweep", "BankRedux", "--values", "65536,131072"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "65536" in out and "131072" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDoctorCommand:
    def test_critical_findings_exit_nonzero(self, capsys):
        rc = main(["doctor", "CoMem"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "uncoalesced-access" in out

    def test_clean_benchmark_exits_zero(self, capsys):
        rc = main(["doctor", "MemAlign", "-p", "n=65536"])
        assert rc == 0

    def test_unknown_benchmark(self, capsys):
        assert main(["doctor", "NoSuchBench"]) == 2


class TestProfileCommand:
    def test_writes_metrics_trace_and_ndjson(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        ndjson = tmp_path / "log.ndjson"
        rc = main([
            "profile", "MemAlign", "-p", "n=65536",
            "--json", str(metrics), "--trace", str(trace), "--ndjson", str(ndjson),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roofline" in out
        assert "activity record(s) collected" in out

        import json

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro-prof-metrics/1"
        assert doc["kernels"]
        tdoc = json.loads(trace.read_text())
        assert len(tdoc["traceEvents"]) > 0
        assert all(
            {"name", "ph", "ts", "pid", "tid"} <= set(ev)
            for ev in tdoc["traceEvents"]
        )
        assert ndjson.read_text().strip()

    def test_run_with_export_flags(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main([
            "run", "MemAlign", "-p", "n=65536", "--json", str(metrics),
        ])
        assert rc == 0
        assert metrics.exists()

    def test_unknown_benchmark(self, capsys):
        assert main(["profile", "NoSuchBench"]) == 2


class TestProfDiffCommand:
    @staticmethod
    def _write(path, time_avg, gld=1.0):
        import json

        path.write_text(json.dumps({
            "schema": "repro-prof-metrics/1",
            "kernels": {"k": {"time_avg_s": time_avg,
                              "metrics": {"gld_efficiency": gld}}},
        }))

    def test_no_regression_exits_zero(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 1e-3)
        self._write(b, 1e-3)
        rc = main(["prof", "diff", str(a), str(b)])
        assert rc == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 1e-3, gld=1.0)
        self._write(b, 5e-3, gld=0.3)
        rc = main(["prof", "diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSED" in out

    def test_tolerance_flag_waives_regression(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 1e-3)
        self._write(b, 1.2e-3)
        assert main(["prof", "diff", str(a), str(b)]) == 1
        assert main(["prof", "diff", str(a), str(b), "--time-tolerance", "0.5"]) == 0

    def test_missing_file_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        self._write(a, 1e-3)
        rc = main(["prof", "diff", str(a), str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _write_backend(path, backend, time_avg=1e-3):
        import json

        path.write_text(json.dumps({
            "schema": "repro-prof-metrics/1",
            "execution": {"backend": backend},
            "kernels": {"k": {"time_avg_s": time_avg, "metrics": {}}},
        }))

    def test_backend_reported(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_backend(a, "jit")
        self._write_backend(b, "jit")
        assert main(["prof", "diff", str(a), str(b)]) == 0
        assert "backend: jit -> jit" in capsys.readouterr().out

    def test_cross_backend_refused(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_backend(a, "reference")
        self._write_backend(b, "jit")
        rc = main(["prof", "diff", str(a), str(b)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "refusing to diff across execution backends" in err
        assert "--allow-backend-mismatch" in err

    def test_cross_backend_mismatch_flag(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_backend(a, "reference")
        self._write_backend(b, "jit")
        rc = main([
            "prof", "diff", str(a), str(b), "--allow-backend-mismatch",
        ])
        assert rc == 0
        assert "MISMATCH allowed by flag" in capsys.readouterr().out

    def test_roofline_from_saved_document(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(["profile", "MemAlign", "-p", "n=65536", "--json", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["prof", "roofline", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ops/byte" in out and "bound" in out


class TestSanitizeCommand:
    def test_buggy_demo_exits_nonzero(self, capsys):
        rc = main(["sanitize", "oob-write", "--tool", "memcheck"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "global-oob-write" in out
        assert "block (" in out and "thread (" in out

    def test_clean_demo_exits_zero(self, capsys):
        rc = main(["sanitize", "clean", "--tool", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no issues detected" in out

    def test_benchmark_under_all_tools(self, capsys):
        rc = main(["sanitize", "MemAlign", "--tool", "all", "-p", "n=65536"])
        assert rc == 0  # leak warnings are not critical

    def test_race_demo_caught_by_racecheck(self, capsys):
        rc = main(["sanitize", "shared-race", "--tool", "racecheck"])
        assert rc == 1
        assert "racecheck" in capsys.readouterr().out

    def test_divergent_barrier_caught_by_synccheck(self, capsys):
        rc = main(["sanitize", "divergent-barrier", "--tool", "synccheck"])
        assert rc == 1
        assert "divergent-barrier" in capsys.readouterr().out

    def test_injected_abort_reports_and_exits_2(self, capsys):
        rc = main(["sanitize", "clean", "--fault-seed", "0", "--abort-at", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "injected fault" in captured.err
        assert "kernel-abort" in captured.out  # fault log still printed

    def test_transfer_faults_recover_with_cap(self, capsys):
        rc = main(
            ["sanitize", "clean", "--fault-seed", "3",
             "--h2d-fail-prob", "1.0", "--max-transfer-failures", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "h2d-fail" in out and "h2d-recovered" in out

    def test_unknown_demo_or_benchmark(self, capsys):
        assert main(["sanitize", "no-such-target"]) == 2


class TestBackendFlag:
    def test_run_backend_fast_matches_reference(self, capsys):
        assert main(["run", "MemAlign", "--backend", "jit", "-p", "n=65536"]) == 0
        jit_out = capsys.readouterr().out
        assert main(["run", "MemAlign", "--backend", "reference", "-p", "n=65536"]) == 0
        ref_out = capsys.readouterr().out
        assert jit_out == ref_out

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "MemAlign", "--backend", "vectorized"])


class TestSchedulerFlags:
    def test_parallel_sweep_out_is_byte_identical(self, capsys, tmp_path):
        values = "65536,131072"
        serial = tmp_path / "serial.json"
        par = tmp_path / "par.json"
        stats = tmp_path / "stats.json"
        assert main(
            ["sweep", "BankRedux", "--values", values, "--out", str(serial)]
        ) == 0
        assert main(
            [
                "sweep", "BankRedux", "--values", values, "--out", str(par),
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                "--journal-dir", str(tmp_path / "journal"),
                "--stats", str(stats),
            ]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == par.read_bytes()
        import json

        doc = json.loads(stats.read_text())
        assert doc["schema"] == "repro-prof-sched/1"
        assert doc["cache"]["misses"] == 2 and doc["cache"]["hits"] == 0

    def test_warm_cache_skips_recompute(self, capsys, tmp_path):
        argv = [
            "sweep", "BankRedux", "--values", "65536,131072",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--stats", str(tmp_path / "stats.json"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        import json

        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["cache"]["hits"] == 2 and doc["cache"]["misses"] == 0

    @pytest.mark.parametrize("flag", ["--jobs", "--max-retries"])
    def test_warm_run_executes_no_job(self, flag, capsys, tmp_path):
        import json

        from repro.obs import parse_prometheus_text

        argv = [
            "sweep", "MemAlign", "--values", "16384,32768", flag, "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--stats", str(tmp_path / "stats.json"),
            "--metrics", str(tmp_path / "m.prom"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["cache"]["hits"] == 2 and doc["cache"]["misses"] == 0
        assert doc["execution"]["completed"] == 0
        samples = {
            s.name: s.value
            for s in parse_prometheus_text((tmp_path / "m.prom").read_text())
        }
        assert samples["repro_cache_hits_total"] == 2
        assert samples["repro_jobs_remaining"] == 0

    def test_no_cache_disables_lookup(self, capsys, tmp_path):
        argv = [
            "sweep", "BankRedux", "--values", "65536", "--jobs", "2",
            "--no-cache", "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--stats", str(tmp_path / "stats.json"),
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        import json

        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["cache"]["enabled"] is False
        assert doc["cache"]["hits"] == 0 and doc["cache"]["stores"] == 0

    def test_default_sweep_under_jobs_matches_serial(self, capsys, tmp_path):
        # the scheduler decomposes the figure's default x-values itself
        argv = ["sweep", "TaskGraph", "-p", "iterations=2"]
        serial = tmp_path / "serial.json"
        par = tmp_path / "par.json"
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + [
            "--jobs", "2", "--no-journal",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(par),
        ]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == par.read_bytes()


class TestResilienceFlags:
    def test_chaos_sweep_byte_identical_to_clean(self, capsys, tmp_path):
        values = "16384,32768"
        serial = tmp_path / "serial.json"
        chaotic = tmp_path / "chaotic.json"
        assert main(
            ["sweep", "MemAlign", "--values", values, "--out", str(serial)]
        ) == 0
        assert main(
            [
                "sweep", "MemAlign", "--values", values, "--out", str(chaotic),
                "--chaos", "seed=7,crash=0.6,max-fault-attempts=2",
                "--max-retries", "4", "--no-cache",
                "--journal-dir", str(tmp_path / "journal"),
            ]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == chaotic.read_bytes()

    def test_interrupt_saves_journal_then_resume_completes(self, capsys, tmp_path):
        import json

        values = "8192,16384,32768"
        serial = tmp_path / "serial.json"
        resumed = tmp_path / "resumed.json"
        stats = tmp_path / "stats.json"
        assert main(
            ["sweep", "MemAlign", "--values", values, "--out", str(serial)]
        ) == 0
        base = [
            "sweep", "MemAlign", "--values", values, "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]
        assert main(base + ["--run-id", "r1", "--chaos", "interrupt-after=1"]) == 4
        err = capsys.readouterr().err
        assert "--resume r1" in err and "1 completed" in err
        assert main(
            base + ["--resume", "r1", "--out", str(resumed), "--stats", str(stats)]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == resumed.read_bytes()
        doc = json.loads(stats.read_text())
        assert doc["execution"]["resume_skips"] == 1
        assert doc["execution"]["completed"] == 2

    def test_resume_after_a_kill_before_the_journal_header(
        self, capsys, tmp_path
    ):
        # a kill between creating the worker journal and appending its
        # header leaves an empty file; resuming must treat it as new
        values = "8192,16384"
        serial = tmp_path / "serial.json"
        resumed = tmp_path / "resumed.json"
        assert main(
            ["sweep", "MemAlign", "--values", values, "--out", str(serial)]
        ) == 0
        base = [
            "sweep", "MemAlign", "--values", values, "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]
        assert main(base + ["--run-id", "r1", "--chaos", "interrupt-after=1"]) == 4
        (tmp_path / "journal" / "r1.fleet" / "journals" / "r1.ndjson").write_text("")
        assert main(base + ["--resume", "r1", "--out", str(resumed)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == resumed.read_bytes()

    def test_degraded_fallback_exits_three(self, capsys, tmp_path):
        rc = main([
            "run", "MemAlign", "-p", "n=16384", "--backend", "jit",
            "--chaos", "diverge=0", "--no-journal",
        ])
        out = capsys.readouterr().out
        assert rc == 3
        assert "[ok]" in out  # the fallback re-ran on the reference backend

    def test_quarantine_exits_two(self, capsys, tmp_path):
        rc = main([
            "sweep", "MemAlign", "--values", "16384",
            "--chaos", "seed=3,crash=1.0", "--max-retries", "1",
            "--no-cache", "--no-journal",
        ])
        assert rc == 2
        assert "quarantined" in capsys.readouterr().err

    def test_narrower_resume_drops_a_stale_quarantine_marker(
        self, capsys, tmp_path
    ):
        sweep = [
            "sweep", "MemAlign", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]
        assert main(sweep + [
            "--values", "8192,16384", "--run-id", "q",
            "--chaos", "seed=3,crash=0.5,max-fault-attempts=99",
            "--max-retries", "0",
        ]) == 2
        assert "MemAlign#1" in capsys.readouterr().err
        # the resume drops the quarantined job; its marker stays on disk
        resumed = tmp_path / "resumed.json"
        clean = tmp_path / "clean.json"
        assert main(sweep + [
            "--values", "8192", "--resume", "q", "--out", str(resumed),
        ]) == 0
        assert main(sweep + [
            "--values", "8192", "--no-journal", "--out", str(clean),
        ]) == 0
        capsys.readouterr()
        assert resumed.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["--jobs", "0", "--run-id", "z"], ["--jobs", "-1"]],
        ids=["zero", "negative"],
    )
    def test_jobs_below_one_is_refused(self, argv, capsys, tmp_path):
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"), *argv,
        ]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be at least 1" in err and "--join" in err
        assert not (tmp_path / "journal").exists()

    def test_argument_errors_carry_no_cuda_code(self, capsys, tmp_path):
        # a bad flag is not a CUDA failure: no [cudaError...] suffix,
        # while a CUDA error family keeps its code
        base = [
            "sweep", "MemAlign", "--values", "8192", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]
        for argv in (["--resume", "nosuch"], ["--jobs", "0"]):
            assert main(base + argv) == 2
            err = capsys.readouterr().err.strip()
            assert err.startswith("error: ") and "[" not in err, err
        main(["run", "MemAlign", "-p", "n=8192", "-p", "block=4096"])
        err = capsys.readouterr().err.strip()
        assert err.endswith("[cudaErrorInvalidConfiguration]"), err

    def test_run_id_refuses_an_existing_run(self, capsys, tmp_path):
        argv = [
            "sweep", "MemAlign", "--values", "8192", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"), "--run-id", "r1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "--resume r1" in capsys.readouterr().err

    def test_no_journal_holds_for_fleet_runs(self, capsys, tmp_path):
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384", "--jobs", "2",
            "--no-journal", "--no-cache",
            "--journal-dir", str(tmp_path / "journal"),
        ]) == 0
        assert not (tmp_path / "journal").exists()

    def test_interrupted_no_journal_mentions_discard(self, capsys, tmp_path):
        rc = main([
            "sweep", "MemAlign", "--values", "8192,16384", "--no-cache",
            "--no-journal", "--chaos", "interrupt-after=1",
        ])
        assert rc == 4
        assert "discarded" in capsys.readouterr().err


class TestCliErrorPaths:
    def test_unknown_benchmark_everywhere(self, capsys):
        for argv in (
            ["run", "NoSuchBench"],
            ["sweep", "NoSuchBench", "--values", "16"],
            ["check", "NoSuchBench"],
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err

    def test_invalid_backend_rejected(self, capsys):
        for argv in (
            ["run", "MemAlign", "--backend", "turbo"],
            ["check", "--all", "--backend", "turbo"],
            ["run", "MemAlign", "--backend", "fast"],  # retired
            ["check", "--all", "--backend", "all"],  # retired
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_unwritable_cache_dir_exits_two(self, capsys, tmp_path):
        # a file where the cache directory should be: mkdir -> OSError
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        rc = main([
            "sweep", "BankRedux", "--values", "65536", "--jobs", "2",
            "--cache-dir", str(blocker),
            "--journal-dir", str(tmp_path / "journal"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not writable" in err and "--no-cache" in err

    def test_malformed_metrics_json_to_prof_diff_exits_two(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        good.write_text('{"schema": "repro-prof-metrics/1", "kernels": {}}')
        bad.write_text("{ this is not json")
        assert main(["prof", "diff", str(good), str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_metrics_json_to_prof_diff_exits_two(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        wrong = tmp_path / "wrong.json"
        good.write_text('{"schema": "repro-prof-metrics/1", "kernels": {}}')
        wrong.write_text('{"some": "object"}')
        assert main(["prof", "diff", str(good), str(wrong)]) == 2
        assert "error:" in capsys.readouterr().err


#: a one-benchmark claim file quick enough for CLI round trips
_FAST_CLAIMS = (
    'schema = "repro-claims/1"\nbenchmark = "MemAlign"\n'
    "[run]\nn = 65536\n"
    '[[claims]]\nkind = "speedup"\nmin = 1.0\nmax = 1.2\n'
    '[[claims]]\nkind = "verified"\n'
)


class TestCheckCommand:
    @staticmethod
    def _write_doc(path, *, speedup=14.0, verified=True):
        import json

        path.write_text(json.dumps({
            "schema": "repro-prof-bench/1",
            "results": [{
                "benchmark": "CoMem",
                "baseline_name": "block",
                "optimized_name": "cyclic",
                "baseline_time_s": speedup * 0.1,
                "optimized_time_s": 0.1,
                "speedup": speedup,
                "verified": verified,
                "params": {"n": 4194304, "grid": 1024, "block": 256},
                "metrics": {
                    "block_transactions_per_request": 16.0,
                    "cyclic_transactions_per_request": 1.0,
                    "block_gld_efficiency": 0.125,
                    "cyclic_gld_efficiency": 1.0,
                },
            }],
        }))

    def test_no_selection_exits_two(self, capsys):
        assert main(["check"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_doc_mode_passes_on_conforming_document(self, capsys, tmp_path):
        doc = tmp_path / "results.json"
        self._write_doc(doc)
        assert main(["check", "--doc", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "conformance: OK" in out

    def test_doc_mode_fails_on_broken_document(self, capsys, tmp_path):
        doc = tmp_path / "results.json"
        self._write_doc(doc, speedup=0.5)
        assert main(["check", "--doc", str(doc)]) == 1
        out = capsys.readouterr().out
        assert "FAIL claim CoMem: speedup" in out
        assert "18 (average)" in out  # the paper context in the report

    def test_doc_mode_fails_on_unverified_result(self, capsys, tmp_path):
        doc = tmp_path / "results.json"
        self._write_doc(doc, verified=False)
        assert main(["check", "--doc", str(doc)]) == 1
        assert "DISAGREE" in capsys.readouterr().out

    def test_json_report_written(self, capsys, tmp_path):
        import json

        doc = tmp_path / "results.json"
        out_json = tmp_path / "report.json"
        self._write_doc(doc)
        assert main(["check", "--doc", str(doc), "--json", str(out_json)]) == 0
        report = json.loads(out_json.read_text())
        assert report["schema"] == "repro-conformance/1"
        assert report["ok"] is True

    @pytest.mark.parametrize("backend", ["reference", "both"])
    def test_live_check_one_benchmark(self, capsys, tmp_path, backend):
        spec = tmp_path / "memalign.toml"
        spec.write_text(
            'schema = "repro-claims/1"\nbenchmark = "MemAlign"\n'
            "[run]\nn = 65536\n"
            '[[claims]]\nkind = "speedup"\nmin = 1.0\nmax = 1.2\n'
            '[[claims]]\nkind = "verified"\n'
        )
        rc = main([
            "check", "MemAlign", "--claims-dir", str(tmp_path),
            "--backend", backend, "--no-relations",
        ])
        assert rc == 0
        assert "conformance: OK" in capsys.readouterr().out

    def test_resume_after_a_claim_edit_reruns_the_unit(self, capsys, tmp_path):
        claims = tmp_path / "memalign.toml"
        claims.write_text(_FAST_CLAIMS)
        check = [
            "check", "MemAlign", "--claims-dir", str(tmp_path),
            "--backend", "reference", "--no-relations",
            "--journal-dir", str(tmp_path / "jd"),
        ]
        assert main(check + ["--run-id", "r1"]) == 0
        claims.write_text(_FAST_CLAIMS.replace("min = 1.0", "min = 2.0"))
        capsys.readouterr()
        assert main(check + ["--resume", "r1"]) == 1
        assert "FAIL claim MemAlign [reference]: speedup" in (
            capsys.readouterr().out
        )

    def test_missing_claims_dir_exits_two(self, capsys, tmp_path):
        rc = main(["check", "--all", "--claims-dir", str(tmp_path / "nope")])
        assert rc == 2
        assert "claims directory not found" in capsys.readouterr().err


class TestProfDiffClaims:
    def _claim_file(self, tmp_path):
        spec = tmp_path / "comem.toml"
        spec.write_text(
            'schema = "repro-claims/1"\nbenchmark = "CoMem"\n'
            '[[claims]]\nkind = "speedup"\nmin = 8.0\nmax = 25.0\n'
            '[[claims]]\nkind = "verified"\n'
        )
        return spec

    def test_claims_pass_alongside_diff(self, capsys, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        TestCheckCommand._write_doc(before)
        TestCheckCommand._write_doc(after)
        rc = main([
            "prof", "diff", str(before), str(after),
            "--claims", str(self._claim_file(tmp_path)),
        ])
        assert rc == 0
        assert "paper claims on after.json: 2/2 pass" in capsys.readouterr().out

    def test_failing_claim_is_a_regression(self, capsys, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        TestCheckCommand._write_doc(before)
        # after regresses to 7x: within the relative diff tolerance
        # window? no -- but the absolute claim floor of 8x catches it
        TestCheckCommand._write_doc(after, speedup=7.5)
        rc = main([
            "prof", "diff", str(before), str(after),
            "--claims", str(self._claim_file(tmp_path)),
            "--time-tolerance", "10.0",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL claim CoMem: speedup" in out


class TestProfDiffBenchDocs:
    def test_reports_removed_benchmark(self, capsys, tmp_path):
        import json

        def doc(names):
            return {
                "schema": "repro-prof-bench/1",
                "results": [
                    {
                        "benchmark": n,
                        "baseline_time_s": 1.0,
                        "optimized_time_s": 0.5,
                        "speedup": 2.0,
                        "verified": True,
                    }
                    for n in names
                ],
            }

        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        before.write_text(json.dumps(doc(["CoMem", "Shmem"])))
        after.write_text(json.dumps(doc(["CoMem"])))
        assert main(["prof", "diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "benchmarks only in before: Shmem" in out


class TestFleetCLI:
    """``sweep --jobs/--join`` and their argument validation."""

    def _sweep(self, tmp_path, *extra):
        return main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            *extra,
        ])

    def test_fleet_sweep_matches_serial(self, capsys, tmp_path):
        out_fleet = tmp_path / "fleet.json"
        out_serial = tmp_path / "serial.json"
        assert self._sweep(
            tmp_path, "--jobs", "2", "--run-id", "clifleet",
            "--out", str(out_fleet),
        ) == 0
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--out", str(out_serial),
        ]) == 0
        import json

        a = json.loads(out_fleet.read_text())
        b = json.loads(out_serial.read_text())
        assert a["sweep"] == b["sweep"]

    def test_join_of_complete_run_merges(self, capsys, tmp_path):
        assert self._sweep(tmp_path, "--run-id", "clifleet") == 0
        capsys.readouterr()
        assert self._sweep(tmp_path, "--join", "clifleet") == 0
        assert "MemAlign" in capsys.readouterr().out

    def test_stats_carry_fleet_section(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        assert self._sweep(
            tmp_path, "--jobs", "2", "--stats", str(stats)
        ) == 0
        import json

        fleet = json.loads(stats.read_text())["execution"]["fleet"]
        assert fleet["workers"] == 2
        assert fleet["leases_acquired"] == 2

    def test_fleet_rejects_resume(self, capsys, tmp_path):
        # a joining worker re-joins its run; only a coordinator resumes
        assert self._sweep(
            tmp_path, "--join", "old", "--resume", "old"
        ) == 2
        assert "--resume does not apply to --join" in capsys.readouterr().err


class TestResumeNothingToDo:
    """``--resume`` of a complete run: exit 0, no artifacts re-written."""

    def _sweep(self, tmp_path, *extra):
        return main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            *extra,
        ])

    def test_complete_resume_is_a_noop(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        assert self._sweep(
            tmp_path, "--run-id", "r1", "--out", str(out)
        ) == 0
        first_bytes = out.read_text()
        out.write_text("sentinel: must not be re-written")
        capsys.readouterr()
        assert self._sweep(
            tmp_path, "--resume", "r1", "--out", str(out)
        ) == 0
        printed = capsys.readouterr().out
        assert "nothing to do" in printed
        assert "r1 already complete" in printed
        assert out.read_text() == "sentinel: must not be re-written"
        assert first_bytes  # sanity: the first run did write the doc

    def test_noop_resume_names_what_it_writes(self, capsys, tmp_path):
        # after a quarantine, a narrower resume has nothing left to run
        # but writes the missing --out and --stats: its summary must not
        # claim the artifacts are unchanged
        sweep = [
            "sweep", "MemAlign", "--no-cache",
            "--journal-dir", str(tmp_path / "jd"),
        ]
        assert main(sweep + [
            "--values", "8192,16384", "--run-id", "q",
            "--chaos", "seed=3,crash=0.5,max-fault-attempts=99",
            "--max-retries", "0",
        ]) == 2
        capsys.readouterr()
        out, stats = tmp_path / "q.json", tmp_path / "stats.json"
        assert main(sweep + [
            "--values", "8192", "--resume", "q", "--out", str(out),
            "--stats", str(stats),
        ]) == 0
        printed = capsys.readouterr().out
        assert "nothing to do: run q already complete" in printed
        assert "unchanged" not in printed
        assert f"sweep results written to {out}" in printed
        assert f"scheduler stats written to {stats}" in printed
        assert out.exists() and stats.exists()

    def test_complete_resume_writes_missing_out(self, capsys, tmp_path):
        # a run killed after its last journal record but before --out
        # was written, or run without --out: the resume writes it
        serial = tmp_path / "serial.json"
        resumed = tmp_path / "resumed.json"
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--out", str(serial),
        ]) == 0
        assert self._sweep(tmp_path, "--run-id", "r1") == 0
        capsys.readouterr()
        assert self._sweep(
            tmp_path, "--resume", "r1", "--out", str(resumed),
            "--stats", str(tmp_path / "stats.json"),
        ) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert resumed.read_bytes() == serial.read_bytes()

    def test_partial_resume_still_runs_and_writes(self, capsys, tmp_path):
        assert self._sweep(tmp_path, "--run-id", "r1") == 0
        out = tmp_path / "out.json"
        capsys.readouterr()
        # one extra value: the resume has real work, so it must render
        # and write normally
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384,32768",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--resume", "r1", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "nothing to do" not in printed
        assert out.exists()


class TestJournalCLI:
    """``repro journal ls/show/gc``."""

    def _seed_run(self, tmp_path):
        assert main([
            "sweep", "MemAlign", "--values", "8192",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--run-id", "r1",
        ]) == 0

    def test_ls_empty(self, capsys, tmp_path):
        assert main([
            "journal", "ls", "--journal-dir", str(tmp_path / "jd")
        ]) == 0
        assert "no journaled runs" in capsys.readouterr().out

    def test_ls_and_show(self, capsys, tmp_path):
        self._seed_run(tmp_path)
        capsys.readouterr()
        assert main([
            "journal", "ls", "--journal-dir", str(tmp_path / "jd")
        ]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "sweep" in out
        assert main([
            "journal", "show", "r1", "--journal-dir", str(tmp_path / "jd")
        ]) == 0
        assert "run r1" in capsys.readouterr().out

    def test_show_fleet_run(self, capsys, tmp_path):
        assert main([
            "sweep", "MemAlign", "--values", "8192",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--run-id", "f1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "journal", "show", "f1", "--journal-dir", str(tmp_path / "jd")
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet run f1" in out and "completed 1/1" in out

    def test_show_fleet_run_with_unreadable_manifest_exits_two(
        self, capsys, tmp_path
    ):
        run_dir = tmp_path / "jd" / "f2.fleet"
        (run_dir / "journals").mkdir(parents=True)
        manifest = run_dir / "manifest.json"
        # a crash before the manifest was published, then a torn one
        for body in (None, '{"schema": "repro-fleet/1", "jo'):
            if body is not None:
                manifest.write_text(body)
            assert main([
                "journal", "show", "f2", "--journal-dir", str(tmp_path / "jd")
            ]) == 2
            assert str(manifest) in capsys.readouterr().err

    def test_show_unknown_run_exits_two(self, capsys, tmp_path):
        assert main([
            "journal", "show", "ghost", "--journal-dir", str(tmp_path / "jd")
        ]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_gc_dry_run_then_real(self, capsys, tmp_path):
        import os
        import time

        self._seed_run(tmp_path)
        old = time.time() - 10 * 86400.0
        run_dir = tmp_path / "jd" / "r1.fleet"
        for path in (run_dir, *run_dir.rglob("*")):
            os.utime(path, (old, old))
        capsys.readouterr()
        assert main([
            "journal", "gc", "--older-than", "7", "--dry-run",
            "--journal-dir", str(tmp_path / "jd"),
        ]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert run_dir.exists()
        assert main([
            "journal", "gc", "--older-than", "7",
            "--journal-dir", str(tmp_path / "jd"),
        ]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not run_dir.exists()

    def test_show_and_top_on_a_supervised_check_run(self, capsys, tmp_path):
        (tmp_path / "memalign.toml").write_text(_FAST_CLAIMS)
        check = [
            "check", "MemAlign", "--claims-dir", str(tmp_path),
            "--no-relations", "--journal-dir", str(tmp_path / "jd"),
        ]
        assert main(
            check + ["--run-id", "chk", "--chaos", "interrupt-after=1"]
        ) == 4
        assert main(check + ["--resume", "chk"]) == 0
        assert (tmp_path / "jd" / "chk.fleet").is_dir()
        assert not list((tmp_path / "jd").glob("*.ndjson"))
        capsys.readouterr()
        show = ["journal", "show", "chk", "--journal-dir", str(tmp_path / "jd")]
        assert main(show) == 0
        out = capsys.readouterr().out
        assert "command=check" in out and "completed 2/2" in out
        assert main([
            "top", "chk", "--once", "--journal-dir", str(tmp_path / "jd"),
        ]) == 0
        assert "2/2 jobs" in capsys.readouterr().out

    def test_readers_agree_after_a_narrower_resume(self, capsys, tmp_path):
        jd = ["--journal-dir", str(tmp_path / "jd")]
        sweep = ["sweep", "MemAlign", "--no-cache", *jd]
        assert main(sweep + ["--values", "8192,16384", "--run-id", "r"]) == 0
        # the resumed run's manifest lists one job; the journal holds two
        assert main(sweep + ["--values", "8192", "--resume", "r"]) == 0
        capsys.readouterr()
        assert main(["journal", "ls", *jd]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[:3] == ["r", "sweep", "1/1"]
        assert main(["journal", "show", "r", *jd]) == 0
        out = capsys.readouterr().out
        assert "worker r: 1 completed" in out and "completed 1/1" in out
        assert main(["top", "r", "--once", *jd]) == 0
        assert "1/1 jobs" in capsys.readouterr().out


class TestObsCLI:
    """``repro top``, ``--metrics``, ``--trace`` stitching, show filters."""

    def _fleet_sweep(self, tmp_path, run_id="f1", extra=()):
        return main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--run-id", run_id, *extra,
        ])

    def test_top_once_renders_completed_run(self, capsys, tmp_path):
        assert self._fleet_sweep(tmp_path) == 0
        capsys.readouterr()
        assert main([
            "top", "f1", "--journal-dir", str(tmp_path / "jd"), "--once",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet f1" in out
        assert "2/2 jobs (100%)" in out
        assert "WORKER" in out

    def test_top_unknown_run_exits_two(self, capsys, tmp_path):
        assert main([
            "top", "ghost", "--journal-dir", str(tmp_path / "jd"), "--once",
        ]) == 2
        assert "no fleet run directory" in capsys.readouterr().err

    def test_fleet_trace_and_metrics_sidecar(self, capsys, tmp_path):
        import json

        from repro.obs import TraceContext, parse_prometheus_text

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert self._fleet_sweep(tmp_path, extra=(
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        )) == 0
        out = capsys.readouterr().out
        assert "stitched fleet trace written to" in out
        assert "metrics written to" in out

        samples = parse_prometheus_text(metrics_path.read_text())
        by_name = {s.name: s for s in samples}
        assert by_name["repro_jobs_completed_total"].value == 2.0
        # one worker runs in-process
        assert by_name["repro_run_info"].labels["mode"] == "serial"

        doc = json.loads(trace_path.read_text())
        spans = [
            e for e in doc["traceEvents"] if e.get("cat") == "span"
        ]
        roots = [e for e in spans if "parent_span_id" not in e["args"]]
        assert len(roots) == 1
        assert roots[0]["args"]["trace_id"] == TraceContext.root("f1").trace_id

    def test_pool_trace_and_metrics_sidecar(self, capsys, tmp_path):
        import json

        from repro.obs import parse_prometheus_text

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--run-id", "r1",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        assert "stitched fleet trace written to" in capsys.readouterr().out
        samples = parse_prometheus_text(metrics_path.read_text())
        by_name = {s.name: s for s in samples}
        assert by_name["repro_run_info"].labels["run_id"] == "r1"
        assert by_name["repro_jobs_completed_total"].value == 2.0
        doc = json.loads(trace_path.read_text())
        assert doc["otherData"]["run_id"] == "r1"

    @staticmethod
    def _series(samples):
        return {(s.name, tuple(sorted(s.labels.items()))): s.value
                for s in samples}

    def test_sidecar_reads_the_run_directory_snapshot(self, capsys, tmp_path):
        from repro.obs import fleet_status, parse_prometheus_text, run_samples
        from repro.resilience.fleet import fleet_dir
        from repro.resilience.supervisor import SchedTelemetry

        # a cache-populating run, then a warm one that executes nothing
        assert self._fleet_sweep(tmp_path, run_id="warm0") == 0
        prom = tmp_path / "warm.prom"
        assert self._fleet_sweep(
            tmp_path, run_id="warm", extra=("--metrics", str(prom))
        ) == 0
        capsys.readouterr()
        sidecar = self._series(parse_prometheus_text(prom.read_text()))
        status = fleet_status(fleet_dir(tmp_path / "jd", "warm"))
        kw = {"run_id": "warm", "command": "sweep"}
        tele = SchedTelemetry()
        direct = self._series(run_samples(status, tele, **kw))
        run_dir_series = direct.keys() - self._series(
            run_samples(None, tele, **kw)
        ).keys()
        assert run_dir_series
        assert {k: sidecar[k] for k in run_dir_series} == {
            k: direct[k] for k in run_dir_series
        }
        assert sidecar[("repro_jobs_completed_total", ())] == 2
        assert sidecar[("repro_cache_hits_total", ())] == 2

    def test_bare_metrics_supervises_the_run(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        assert main([
            "sweep", "MemAlign", "--values", "8192",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--metrics", str(prom),
        ]) == 0
        assert "metrics written to" in capsys.readouterr().out
        assert prom.stat().st_size > 0
        assert len(list((tmp_path / "jd").glob("*.fleet"))) == 1

    def test_scrape_and_sidecar_have_the_same_series(self, capsys, tmp_path):
        from repro.__main__ import _RunSession, build_parser
        from repro.obs import parse_prometheus_text

        prom = tmp_path / "m.prom"
        assert self._fleet_sweep(
            tmp_path, run_id="r1", extra=("--metrics", str(prom))
        ) == 0
        capsys.readouterr()
        # a session over the finished run, before it opens the cache
        args = build_parser().parse_args([
            "sweep", "MemAlign", "--values", "8192,16384",
            "--journal-dir", str(tmp_path / "jd"), "--resume", "r1",
        ])
        scrape = {s.name for s in _RunSession(args, "sweep")._samples()}
        sidecar = {
            s.name for s in parse_prometheus_text(prom.read_text())
            if not s.name.startswith("repro_cache_")
        }
        assert scrape == sidecar

    def test_journal_show_trace_and_span_filters(self, capsys, tmp_path):
        from repro.obs import TraceContext, trace_id_for_run

        assert main([
            "sweep", "MemAlign", "--values", "8192",
            "--journal-dir", str(tmp_path / "jd"),
            "--cache-dir", str(tmp_path / "cd"),
            "--run-id", "r1",
        ]) == 0
        capsys.readouterr()
        base = ["journal", "show", "r1", "--journal-dir", str(tmp_path / "jd")]
        tid = trace_id_for_run("r1")
        assert main(base + ["--trace", tid[:8]]) == 0
        out = capsys.readouterr().out
        assert f"trace={tid}" in out
        assert "1/1 job(s) matched" in out

        span = TraceContext.root("r1").job(0).span_id
        assert main(base + ["--span", span[:8]]) == 0
        assert "1/1 job(s) matched" in capsys.readouterr().out

        assert main(base + ["--span", "ffffffffffffffff"]) == 0
        assert "0/1 job(s) matched" in capsys.readouterr().out

    #: sha256 of the stitched ``--trace`` of ``sweep MemAlign --values
    #: 8192,16384 --run-id g1 --no-cache``, straight or interrupted and
    #: resumed; it predates deriving span ids when the trace is read
    TRACE_SHA256 = (
        "00670076ef68cd3a95653c2e3198a566524ec290948870ffa5fc6c815fbbf61f"
    )

    @pytest.mark.parametrize("interrupted", [False, True])
    def test_stitched_trace_is_golden(self, interrupted, capsys, tmp_path):
        import hashlib

        trace = tmp_path / "trace.json"
        sweep = [
            "sweep", "MemAlign", "--values", "8192,16384", "--no-cache",
            "--journal-dir", str(tmp_path / "jd"),
        ]
        if interrupted:
            assert main(
                sweep + ["--run-id", "g1", "--chaos", "interrupt-after=1"]
            ) == 4
            assert main(sweep + ["--resume", "g1", "--trace", str(trace)]) == 0
        else:
            assert main(sweep + ["--run-id", "g1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256

    @staticmethod
    def _span_kernels(trace):
        """job span name -> its (kernel, duration) events, in order."""
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        names = {
            e["args"]["span_id"]: e["name"] for e in events
            if e.get("cat") == "span" and "job" in e["args"]
        }
        out = {name: [] for name in names.values()}
        for e in events:
            if e.get("cat") == "kernel":
                out[names[e["args"]["span_id"]]].append((e["name"], e["dur"]))
        return out

    def _narrower_resume(self, tmp_path):
        """Interrupt a 3-point run after 2 jobs, resume it on its last 2
        points with ``--trace``, and trace a straight run of those 2."""
        sweep = [
            "sweep", "MemAlign", "--no-cache",
            "--journal-dir", str(tmp_path / "jd"),
        ]
        assert main(sweep + [
            "--values", "8192,16384,32768", "--run-id", "r",
            "--chaos", "interrupt-after=2",
        ]) == 4
        for flag, run_id in (("--resume", "r"), ("--run-id", "s")):
            assert main(sweep + [
                "--values", "16384,32768", flag, run_id,
                "--trace", str(tmp_path / f"{run_id}.json"),
            ]) == 0

    def test_narrower_resume_keeps_each_job_in_its_span(
        self, capsys, tmp_path
    ):
        self._narrower_resume(tmp_path)
        capsys.readouterr()
        resumed = self._span_kernels(tmp_path / "r.json")
        straight = self._span_kernels(tmp_path / "s.json")
        assert resumed == straight
        assert [len(kernels) for kernels in straight.values()] == [2, 2]

    def test_narrower_resume_span_filter_reads_the_manifest(
        self, capsys, tmp_path
    ):
        from repro.obs import TraceContext
        from repro.resilience.fleet import read_manifest

        self._narrower_resume(tmp_path)
        capsys.readouterr()
        jd = tmp_path / "jd"
        fps = read_manifest(jd / "r.fleet")["jobs"]
        root = TraceContext.root("r")
        for i, fp in enumerate(fps):
            span = root.job(i).span_id
            assert main([
                "journal", "show", "r", "--journal-dir", str(jd),
                "--span", span[:8],
            ]) == 0
            out = capsys.readouterr().out
            assert "1/2 job(s) matched" in out
            assert f"{fp[:16]}  MemAlign" in out and f"span={span}" in out

    def test_activity_lines_carry_the_job_fingerprint(self, capsys, tmp_path):
        from repro.resilience.fleet import read_manifest, read_worker_activity

        assert self._fleet_sweep(tmp_path, extra=("--no-cache",)) == 0
        capsys.readouterr()
        run_dir = tmp_path / "jd" / "f1.fleet"
        lines = read_worker_activity(run_dir)["f1"]
        jobs = [line["job"] for line in lines]
        assert sorted(set(jobs)) == sorted(read_manifest(run_dir)["jobs"])

    def test_monitor_does_not_perturb_merge(self, capsys, tmp_path):
        import threading

        from repro.common.errors import ReproError
        from repro.obs import fleet_status
        from repro.resilience.fleet import fleet_dir

        plain = tmp_path / "plain.json"
        watched = tmp_path / "watched.json"
        assert self._fleet_sweep(
            tmp_path, run_id="fa", extra=("--out", str(plain))
        ) == 0

        run_dir = fleet_dir(tmp_path / "jd", "fb")
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                try:
                    fleet_status(run_dir)
                except ReproError:
                    pass  # run dir not created yet
                stop.wait(0.02)

        watcher = threading.Thread(target=poll, daemon=True)
        watcher.start()
        try:
            assert self._fleet_sweep(
                tmp_path, run_id="fb", extra=("--out", str(watched))
            ) == 0
        finally:
            stop.set()
            watcher.join(timeout=10)
        capsys.readouterr()
        assert watched.read_bytes() == plain.read_bytes()

    def test_quarantine_writes_flight_dump(self, capsys, tmp_path):
        import json

        from repro.resilience.fleet import read_manifest

        assert main([
            "sweep", "MemAlign", "--values", "16384",
            "--chaos", "seed=3,crash=1.0,max-fault-attempts=99",
            "--max-retries", "1", "--no-cache",
            "--journal-dir", str(tmp_path / "jd"), "--run-id", "q1",
        ]) == 2
        capsys.readouterr()
        dump = tmp_path / "jd" / "q1.fleet" / "flightrec" / "q1-quarantine-0.json"
        doc = json.loads(dump.read_text())
        assert doc["format"] == "repro-flight/1"
        assert {r["name"] for r in doc["records"]} >= {"retry", "quarantine"}
        fp = read_manifest(tmp_path / "jd" / "q1.fleet")["jobs"][0]
        assert all(r["job"] == fp for r in doc["records"])
        assert main([
            "journal", "show", "q1", "--journal-dir", str(tmp_path / "jd"),
        ]) == 0
        out = capsys.readouterr().out
        assert "q1-quarantine-0.json" in out and "reason=quarantine" in out


class TestTable1Trace:
    def test_in_process_trace_comes_from_the_profiler(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        import repro.__main__ as cli
        from repro.core.registry import get_benchmark
        from repro.core.suite import SuiteReport

        calls = []

        def one_benchmark_suite():
            calls.append("MemAlign")
            report = SuiteReport()
            report.results.append(get_benchmark("MemAlign").run(n=16384))
            return report

        # the perf benchmark's launcher rebinds the same global to run
        # Table I at its problem sizes
        monkeypatch.setattr(cli, "run_suite", one_benchmark_suite)
        trace = tmp_path / "trace.json"
        assert main(["table1", "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert calls == ["MemAlign"]
        assert "--no-journal" not in captured.err
        assert "chrome trace written to" in captured.out
        assert json.loads(trace.read_text())["traceEvents"]


class TestCacheGCCommand:
    def make_entry(self, root, key, *, age_days=0.0, size=64):
        import os
        import time

        shard = root / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        path = shard / f"{key}.json"
        path.write_bytes(b"x" * size)
        stamp = time.time() - age_days * 86400.0
        os.utime(path, (stamp, stamp))
        return path

    def test_gc_removes_old_entries(self, capsys, tmp_path):
        old = self.make_entry(tmp_path, "aa" + "0" * 62, age_days=30)
        kept = self.make_entry(tmp_path, "bb" + "0" * 62)
        rc = main([
            "cache", "gc", "--older-than", "7",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "removed 1 entr(ies)" in out
        assert "1 by age" in out
        assert not old.exists()
        assert kept.exists()

    def test_gc_dry_run_keeps_files(self, capsys, tmp_path):
        old = self.make_entry(tmp_path, "aa" + "0" * 62, age_days=30)
        rc = main([
            "cache", "gc", "--older-than", "7", "--dry-run",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "would remove 1" in capsys.readouterr().out
        assert old.exists()

    def test_gc_max_bytes_with_suffix(self, capsys, tmp_path):
        self.make_entry(tmp_path, "aa" + "0" * 62, age_days=2, size=1024)
        self.make_entry(tmp_path, "bb" + "0" * 62, age_days=1, size=1024)
        rc = main([
            "cache", "gc", "--max-bytes", "1K",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "1 by size" in capsys.readouterr().out

    def test_gc_bad_size_is_an_error(self, capsys, tmp_path):
        rc = main([
            "cache", "gc", "--max-bytes", "lots",
            "--cache-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "cannot parse size" in capsys.readouterr().err

    def test_parse_size_suffixes(self):
        from repro.__main__ import _parse_size

        assert _parse_size("4096") == 4096
        assert _parse_size("64K") == 64 << 10
        assert _parse_size("1.5M") == int(1.5 * (1 << 20))
        assert _parse_size("2GiB") == 2 << 30


class TestServeParser:
    def test_serve_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--port", "9000", "--data-dir", "dd",
            "--workers", "3", "--max-queue", "16",
            "--max-per-client", "2", "--breaker-threshold", "5",
            "--breaker-cooldown", "60", "--drain-grace", "10",
        ])
        assert args.port == 9000
        assert args.data_dir == "dd"
        assert args.workers == 3
        assert args.max_queue == 16
        assert args.breaker_threshold == 5
        assert args.drain_grace == 10.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8321
        assert args.host == "127.0.0.1"
        assert args.data_dir == ".repro-serve"
        assert args.workers == 2
