"""Golden figure digests: every sweep reproduces its recorded bytes.

Each case is one figure regenerated at small x-values (or at its
default values), digested as the SHA-256 of its canonical ``as_dict()``
JSON, a newline and its ``render()`` text.  The digests in
``sweep_golden.json`` were recorded from the hand-written per-benchmark
sweep loops the base class's figure loop replaced, so a change to how a
figure is built that moves any byte fails here.  Cases with explicit
values also go through :func:`repro.sched.parallel_sweep`, the
one-job-per-point path the CLI and ``repro serve`` take.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.registry import get_benchmark
from repro.sched import parallel_sweep

GOLDEN_PATH = Path(__file__).with_name("sweep_golden.json")

#: (benchmark, x-values or None for the figure's defaults, run parameters)
CASES = [
    ("WarpDivRedux", [16384, 65536], {}),
    ("DynParallel", [128], {}),
    ("Conkernels", [1, 2, 4], {}),
    ("TaskGraph", [2, 4], {}),
    ("Shmem", [32, 48], {}),
    ("CoMem", [65536, 131072], {}),
    ("MemAlign", [65536, 131072], {}),
    ("GSOverlap", [65536], {}),
    ("Shuffle", [16384, 32768], {}),
    ("BankRedux", [16384, 32768], {}),
    ("HDOverlap", [65536, 131072], {}),
    ("ReadOnlyMem", [64, 128], {}),
    ("UniMem", [1, 16], {"n": 262144}),
    ("MiniTransfer", [512, 256], {"n": 128}),
    ("Conkernels", None, {}),
    ("TaskGraph", None, {"iterations": 2}),
    ("MiniTransfer", None, {"n": 128}),
]


def case_id(bench: str, values, params: dict) -> str:
    vals = ",".join(map(str, values)) if values else "default"
    extra = "".join(f" {k}={v}" for k, v in sorted(params.items()))
    return f"{bench} {vals}{extra}"


def digest(sweep) -> str:
    doc = json.dumps(sweep.as_dict(), sort_keys=True)
    return hashlib.sha256(f"{doc}\n{sweep.render()}".encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "bench,values,params", CASES, ids=[case_id(*c) for c in CASES]
)
def test_serial_sweep_matches_golden(golden, bench, values, params):
    sweep = get_benchmark(bench).sweep(values, **params)
    assert digest(sweep) == golden[case_id(bench, values, params)]


@pytest.mark.parametrize(
    "bench,values,params",
    [c for c in CASES if c[1]],
    ids=[case_id(*c) for c in CASES if c[1]],
)
def test_parallel_sweep_matches_golden(golden, bench, values, params):
    sweep = parallel_sweep(bench, values, params=params)
    assert digest(sweep) == golden[case_id(bench, values, params)]


if __name__ == "__main__":
    # re-record sweep_golden.json only after a deliberate change to a
    # figure's bytes: python -m tests.core.test_sweep_golden
    print(json.dumps(
        {
            case_id(*c): digest(get_benchmark(c[0]).sweep(c[1], **c[2]))
            for c in CASES
        },
        indent=2,
    ))
