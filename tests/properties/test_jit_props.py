"""Properties of the trace-JIT backend: equivalence is not negotiable.

Four laws, each over randomized parameters:

* jit ≡ reference for any benchmark run (the backend changes wall
  clock, never results);
* a warm artifact cache replays to exactly what the cold trace
  produced (sweep determinism across store states);
* a two-worker fleet running jit jobs merges to the serial jit run
  byte-for-byte (the fleet law, lifted to the jit backend);
* an artifact parsed back from its JSON text reproduces every recorded
  summary bit for bit.
"""

import functools
import json
import os
import struct
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.registry import get_benchmark
from repro.exec import use_backend
from repro.jit import reset_jit_store
from repro.jit.codegen import TraceEvent, compile_artifact, generate_source
from repro.mem.banks import BankConflictSummary
from repro.mem.coalesce import AccessSummary
from repro.resilience import ResilienceConfig
from repro.sched import JobSpec, run_jobs

#: cheap, parameterizable subjects with distinct access shapes
#: (CoMem needs paper-scale n to populate its block distribution, so it
#: is covered by the differential matrix and the throughput bench)
SUBJECTS = ("MemAlign", "BankRedux", "Shuffle")

# multiples of the 256-thread block every subject launches with
sizes = st.sampled_from([1 << 12, 1 << 13, 1 << 14, 3 * 1024])


class _StoreDir:
    """Point the global jit store at a private directory, restore after."""

    def __init__(self, path):
        self.path = str(path)

    def __enter__(self):
        self._prev = os.environ.get("REPRO_JIT_CACHE_DIR")
        os.environ["REPRO_JIT_CACHE_DIR"] = self.path
        reset_jit_store()
        return self

    def __exit__(self, *exc):
        if self._prev is None:
            os.environ.pop("REPRO_JIT_CACHE_DIR", None)
        else:
            os.environ["REPRO_JIT_CACHE_DIR"] = self._prev
        reset_jit_store()
        return False


class TestJitEqualsReference:
    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(SUBJECTS), n=sizes)
    def test_run_identical(self, name, n):
        with use_backend("reference"):
            ref = get_benchmark(name).run(n=n).as_dict()
        with use_backend("jit"):
            jit = get_benchmark(name).run(n=n).as_dict()
        assert ref == jit

    @settings(max_examples=4, deadline=None)
    @given(n=st.sampled_from([256, 512]), density=st.integers(2, 4))
    def test_sparse_transfer_identical(self, n, density):
        # MiniTransfer gathers through a random CSR pattern: per-lane
        # data-dependent addresses, the jit's hardest case
        with use_backend("reference"):
            ref = get_benchmark("MiniTransfer").run(
                n=n, nnz=density * n
            ).as_dict()
        with use_backend("jit"):
            jit = get_benchmark("MiniTransfer").run(
                n=n, nnz=density * n
            ).as_dict()
        assert ref == jit


class TestWarmEqualsCold:
    @settings(max_examples=6, deadline=None)
    @given(name=st.sampled_from(SUBJECTS), n=sizes)
    def test_sweep_replay_identical(self, name, n, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("jit-prop")
        values = [n, 2 * n]
        with _StoreDir(store_dir):
            with use_backend("jit"):
                cold = get_benchmark(name).sweep(values).as_dict()
            # fresh process-alike store over the same directory: every
            # launch must come back from a persisted artifact
            reset_jit_store()
            with use_backend("jit"):
                warm = get_benchmark(name).sweep(values).as_dict()
        assert cold == warm


JIT_SPECS = [
    JobSpec(benchmark="MemAlign", params={"n": 8192}, backend="jit"),
    JobSpec(benchmark="MemAlign", params={"n": 16384}, backend="jit"),
]


@functools.lru_cache(maxsize=1)
def serial_jit_bytes() -> str:
    return json.dumps(run_jobs(JIT_SPECS))


class TestFleetJitByteIdentity:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=7))
    def test_two_worker_fleet_matches_serial(self, tmp_path_factory, seed):
        tmp_path = tmp_path_factory.mktemp("fleet-jit-prop")
        cfg = ResilienceConfig(
            run_id=f"jit-prop-{seed}",
            journal_root=tmp_path,
            lease_ttl_s=0.4,
        )
        payloads = run_jobs(JIT_SPECS, jobs=2, config=cfg)
        assert json.dumps(payloads) == serial_jit_bytes()
        assert cfg.telemetry.completed == len(JIT_SPECS)


# ----------------------------------------------------------------------
# artifact format: JSON text round-trips every summary bit

#: every finite double, -0.0 and subnormals included
doubles = st.floats(allow_nan=False, allow_infinity=False)
#: integers well past 2**53, where a float detour would round
wide_ints = st.integers(min_value=-(2**70), max_value=2**70)
fingerprints = st.tuples(*[st.integers(0, 2**64 - 1)] * 4)


@st.composite
def trace_events(draw):
    if draw(st.booleans()):
        return TraceEvent(
            "global",
            draw(st.tuples(*[st.integers(1, 1 << 12)] * 4)),
            draw(fingerprints),
            AccessSummary(
                draw(wide_ints), draw(wide_ints), draw(doubles), draw(doubles),
                draw(doubles), draw(doubles), draw(doubles), draw(wide_ints),
                draw(st.floats(0.0, 1.0, exclude_min=True)),
            ),
        )
    return TraceEvent(
        "shared",
        draw(st.tuples(*[st.integers(1, 1 << 12)] * 3)),
        draw(fingerprints),
        BankConflictSummary(*[draw(wide_ints) for _ in range(5)]),
    )


def _bits(event):
    """Kind, guards and every summary field as (type, exact bits)."""
    fields = tuple(
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        for v in astuple(event.summary)
    )
    return event.kind, event.params, event.fp, type(event.summary), fields


EDGE_CASES = [
    TraceEvent(
        "global", (4, 32, 128, 32), (2**64 - 1, 0, 2**63, 1),
        AccessSummary(
            2**53 + 1, 2**64 + 7, -0.0, 5e-324, 2.225073858507201e-308,
            9007199254740993.0, 1.7976931348623157e308, 2**63 - 1, 1 / 3,
        ),
    ),
    TraceEvent("shared", (32, 32, 4), (0, 0, 0, 0),
               BankConflictSummary(2**53 + 1, -(2**60), 0, 1, 2**64)),
]


class TestArtifactRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(trace_events(), max_size=8))
    @example(events=EDGE_CASES)
    def test_summaries_round_trip_bit_for_bit(self, events):
        key = "ef" * 32
        art = compile_artifact(key, "k", generate_source(key, "k", events))
        assert [_bits(ev) for ev in art.events] == [_bits(ev) for ev in events]
