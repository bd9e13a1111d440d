"""Percentile rule, spreads and compare verdicts of the perf benchmark."""

import json
import statistics

import pytest

from benchmarks.perf import run
from benchmarks.perf.stats import pair_wins, percentile, quartiles, spread, verdict


def test_percentile_rule():
    values = list(range(1, 101))
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 99) == pytest.approx(99.01)
    # never outside the sampled range, even with few samples
    assert percentile([3.0, 1.0, 2.0], 99) <= 3.0
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 100)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3]
    q1, med, q3 = quartiles(values)
    expect = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expect[0], expect[2])
    assert med == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert spread([2.0]) == 0.0


A = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_verdict_same_within_bound():
    b = [x * 1.03 for x in A]
    v, worse_by = verdict(A, b, better="lower", bound=0.10)
    assert v == "same"
    assert worse_by == pytest.approx(0.03)


def test_verdict_worse_and_better():
    assert verdict(A, [x * 1.3 for x in A], better="lower", bound=0.10)[0] == "worse"
    assert verdict(A, [x * 0.7 for x in A], better="lower", bound=0.10)[0] == "better"
    # the direction flips for higher-is-better metrics
    assert verdict(A, [x * 1.3 for x in A], better="higher", bound=0.10)[0] == "better"
    assert verdict(A, [x * 0.7 for x in A], better="higher", bound=0.10)[0] == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    v, _ = verdict(A, noisy, better="lower", bound=0.10)
    assert v == "unresolved"
    # ... unless every run of B beats every run of A
    noisy_but_faster = [1.0, 3.0, 2.0, 4.0, 2.5, 1.5, 3.5, 2.0, 3.0, 2.2]
    assert verdict(A, noisy_but_faster, better="lower", bound=0.10)[0] == "better"


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        verdict(A, A, better="sideways", bound=0.1)


def test_pair_wins_compares_runs_of_the_same_seed():
    # the host slowed down between seeds 1 and 3: B is faster than A in
    # every pair although its median is not lower than A's
    a = {1: 10.0, 2: 10.0, 3: 14.0, 4: 14.0, 9: 1.0}
    b = {1: 9.5, 2: 9.5, 3: 13.5, 4: 14.0, 5: 1.0}
    assert pair_wins(a, b, better="lower") == (3, 4)     # tie counts for neither
    assert pair_wins(a, b, better="higher") == (0, 4)
    assert pair_wins(a, {}, better="lower") == (0, 0)


def _record(workload, metrics, *, seed=0, failed=0, env=None, trace=0):
    return {
        "schema": run.RECORD_SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": 100,
        "failed": failed,
        "metrics": metrics,
        "env": {"python": "3.11", "numpy": "2", "cpu_model": "x", "nproc": 2,
                "fs_type": "ext4", "backend": "reference",
                "jit_store": "n/a", **(env or {})},
    }


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _metrics(scale, workload="table1-oracle"):
    return {m["name"]: 10.0 * scale for m in run.end_to_end(workload)}


def test_compare_reports_each_workload_and_metric(tmp_path, capsys):
    a = _write(tmp_path / "a.ndjson", [
        _record("table1-oracle", _metrics(1.0 + i / 1000), seed=i) for i in range(5)
    ] + [_record("table1-oracle", _metrics(5.0), trace=1)])
    b = _write(tmp_path / "b.ndjson", [
        _record("table1-oracle", _metrics(1.01 + i / 1000), seed=i) for i in range(5)
    ])
    assert run.compare(a, b) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("table1-oracle")]
    assert len(rows) == len(_metrics(1.0)) + 1       # metrics + failed share
    assert all(row.rstrip().endswith("same") for row in rows)
    # B is 1% slower than A in every same-seed pair
    assert all(" 0/5 " in row for row in rows[:-1])
    assert "MISMATCH" not in out


def test_compare_flags_worse_failures_and_env_mismatch(tmp_path, capsys):
    a = _write(tmp_path / "a.ndjson", [
        _record("serve-hits", _metrics(1.0, "serve-hits")) for _ in range(3)
    ])
    b = _write(tmp_path / "b.ndjson", [
        _record("serve-hits", _metrics(1.5, "serve-hits"), failed=1,
                env={"fs_type": "tmpfs"})
        for _ in range(3)
    ])
    assert run.compare(a, b) == 1
    out = capsys.readouterr().out
    assert " worse" in out
    assert "MISMATCH env fs_type" in out
    failed_row = [line for line in out.splitlines() if "failed share" in line]
    assert failed_row[0].rstrip().endswith("worse")
