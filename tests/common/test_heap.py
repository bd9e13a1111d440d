"""The CLI keeps freed heap memory mapped instead of refaulting it."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.common import heap

SRC = Path(__file__).resolve().parents[2] / "src"

#: allocate and free the temporaries of a typical analysis step (eight
#: 2 MiB arrays and one 32 MiB array) 20 times after one warm-up round,
#: and print the minor page faults those 20 rounds took
CHURN = """
import resource, sys
import numpy as np
from repro.common.heap import retain_freed_memory

def churn():
    small = [np.ones(2 << 20, dtype=np.uint8) for _ in range(8)]
    big = np.ones(32 << 20, dtype=np.uint8)
    del small, big

if sys.argv[1] == "retain":
    retain_freed_memory()
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _churn_faults(mode: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", CHURN, mode], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return int(done.stdout)


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in this C library")
def test_freed_temporaries_are_reused_not_refaulted():
    assert _churn_faults("retain") < 1_000
    assert _churn_faults("default") > 10_000


class TestWithoutMallopt:
    @pytest.fixture(autouse=True)
    def _linux(self, monkeypatch):
        monkeypatch.setattr(heap.sys, "platform", "linux")

    def test_cdll_raises(self, monkeypatch):
        calls = []

        def cdll(name):
            calls.append(name)
            raise OSError("no C library")

        monkeypatch.setattr(heap.ctypes, "CDLL", cdll)
        assert heap.retain_freed_memory() is None
        assert calls == [None]

    def test_library_lacks_mallopt(self, monkeypatch):
        calls = []

        def cdll(name):
            calls.append(name)
            return object()

        monkeypatch.setattr(heap.ctypes, "CDLL", cdll)
        assert heap.retain_freed_memory() is None
        assert calls == [None]


def test_every_command_sets_it_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "retain_freed_memory", lambda: calls.append(1))
    assert cli.main(["list"]) == 0
    assert calls == [1]
    assert "CoMem" in capsys.readouterr().out
