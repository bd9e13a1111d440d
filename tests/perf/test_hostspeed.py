"""The CPU-speed scale that end-to-end times are reported on."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.perf.hostspeed import (
    MIN_PROBES, REFERENCE_S, SpeedSampler, probe_s, speed_factor,
)

ROOT = Path(__file__).resolve().parents[2]


def test_factor_is_reference_over_the_mean_probe_in_the_window():
    times = [float(t) for t in range(20)]
    probes = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert speed_factor(times, probes, 0.0, 9.0) == pytest.approx(1.0)
    # a CPU twice as slow halves the scaled time
    assert speed_factor(times, probes, 10.0, 19.0) == pytest.approx(0.5)
    # the mean, not the median: a window half fast, half slow
    assert speed_factor(times, probes, 5.0, 14.0) == pytest.approx(1 / 1.5)


def test_short_window_takes_the_nearest_probes():
    times = [float(t) for t in range(20)]
    probes = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    # no probe started inside; the MIN_PROBES nearest to 16.5 are slow
    assert speed_factor(times, probes, 16.4, 16.6) == pytest.approx(0.5)
    # fewer probes than MIN_PROBES in all: all of them
    assert speed_factor([0.0, 1.0], [REFERENCE_S, 3 * REFERENCE_S], 5.0, 6.0) == (
        pytest.approx(0.5)
    )


def test_probe_measures_cpu_time():
    assert 0 < probe_s() < 1.0


def test_sampler_probes_while_running_and_is_reaped(tmp_path):
    with SpeedSampler(tmp_path / "speed.txt") as sampler:
        t0 = time.perf_counter()
        time.sleep(0.5)
        t1 = time.perf_counter()
        assert sampler.scale(2.0, t0, t1) > 0
        lines = (tmp_path / "speed.txt").read_text().splitlines()
        assert len(lines) >= MIN_PROBES
    assert sampler.proc.returncode is not None


def test_pin_restricts_the_process_and_its_children_to_one_cpu():
    code = (
        "import os, subprocess, sys\n"
        "from benchmarks.perf.hostspeed import pin\n"
        "cpu = pin()\n"
        "child = subprocess.run([sys.executable, '-c', "
        "'import os; print(sorted(os.sched_getaffinity(0)))'],"
        " capture_output=True, text=True, check=True)\n"
        "print(cpu, child.stdout.strip())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=60,
    )
    cpu, child = done.stdout.split(maxsplit=1)
    assert child.strip() == f"[{cpu}]"
