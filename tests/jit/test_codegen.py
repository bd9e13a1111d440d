"""Artifact format: recorded events render to JSON that replays bit-identically."""

import json

import numpy as np
import pytest

from repro.jit.codegen import TraceEvent, compile_artifact, generate_source
from repro.jit.guards import lane_fingerprint
from repro.mem.banks import BankConflictSummary
from repro.mem.coalesce import AccessSummary

KEY = "ab" * 32
GLOBAL_PARAMS = (4, 32, 128, 32)


def _global_event(addrs, mask=None, **overrides):
    summary = AccessSummary(
        n_warps=2,
        n_active_lanes=64,
        transactions=overrides.pop("transactions", 4.0),
        sectors=8.0,
        bursts=4.0,
        unique_sectors=8.0,
        unique_bursts=4.0,
        bytes_requested=256,
        sample_fraction=overrides.pop("sample_fraction", 1.0),
    )
    return TraceEvent("global", GLOBAL_PARAMS, lane_fingerprint(addrs, mask), summary)


def _shared_event(offsets, mask=None):
    summary = BankConflictSummary(
        n_warps=1, n_active_lanes=32, passes=2, conflict_extra=1, max_degree=2
    )
    return TraceEvent("shared", (32, 32, 4), lane_fingerprint(offsets, mask), summary)


def _roundtrip(events, kernel="k"):
    return compile_artifact(KEY, kernel, generate_source(KEY, kernel, events))


class TestGenerateAndCompile:
    def test_replay_matches_event_order(self):
        addrs = np.arange(64) * 4
        offs = np.arange(32) * 4
        events = [_global_event(addrs), _shared_event(offs), _global_event(addrs)]
        art = _roundtrip(events)
        assert [ev.kind for ev in art.events] == ["global", "shared", "global"]
        assert art.events == tuple(events)
        assert art.key == KEY and art.kernel == "k"

    def test_global_replay_roundtrip(self):
        addrs = np.arange(64) * 4
        ev = _global_event(addrs, sample_fraction=0.1 + 0.2)  # non-trivial float
        (replayed,) = _roundtrip([ev]).events
        out = replayed.replay(GLOBAL_PARAMS, addrs, None)
        assert out == ev.summary  # repr round-trips doubles exactly

    def test_shared_replay_roundtrip(self):
        offs = np.arange(32) * 4
        ev = _shared_event(offs)
        (replayed,) = _roundtrip([ev]).events
        assert replayed.replay((32, 32, 4), offs, None) == ev.summary

    def test_guard_rejects_changed_lanes(self):
        addrs = np.arange(64) * 4
        (ev,) = _roundtrip([_global_event(addrs)]).events
        other = addrs.copy()
        other[3] += 4
        assert ev.replay(GLOBAL_PARAMS, other, None) is None

    def test_guard_rejects_changed_params(self):
        addrs = np.arange(64) * 4
        (ev,) = _roundtrip([_global_event(addrs)]).events
        assert ev.replay((8, 32, 128, 32), addrs, None) is None  # itemsize

    def test_guard_is_mask_sensitive(self):
        addrs = np.arange(64) * 4
        mask = np.ones(64, bool)
        (ev,) = _roundtrip([_global_event(addrs, mask)]).events
        off = mask.copy()
        off[0] = False
        assert ev.replay(GLOBAL_PARAMS, addrs, mask) is not None
        assert ev.replay(GLOBAL_PARAMS, addrs, off) is None

    def test_source_is_inspectable(self):
        addrs = np.arange(64) * 4
        src = generate_source(KEY, "mykernel", [_global_event(addrs)])
        doc = json.loads(src)
        assert doc["key"] == KEY and doc["kernel"] == "mykernel"
        assert doc["events"][0]["kind"] == "global"
        assert doc["events"][0]["summary"]["transactions"] == 4.0
        # canonical: rendering is a pure function of the trace
        assert src == generate_source(KEY, "mykernel", [_global_event(addrs)])

    def test_empty_trace_compiles(self):
        assert _roundtrip([]).events == ()


def _valid_doc():
    return json.loads(
        generate_source(KEY, "k", [_global_event(np.arange(64) * 4)])
    )


EV = ("events", 0)
SUMMARY = (*EV, "summary")

#: (path, value) edits that each turn a valid artifact into one the
#: loader must refuse
MALFORMED = {
    "wrong-key": (("key",), "cd" * 32),
    "events-not-list": (("events",), {"0": 1}),
    "unknown-kind": ((*EV, "kind"), "texture"),
    "unhashable-kind": ((*EV, "kind"), ["global"]),
    "extra-event-field": ((*EV, "code"), "print(1)"),
    "short-params": ((*EV, "params"), [4, 32, 128]),
    "bool-fp": ((*EV, "fp"), [True, 1, 2, 3]),
    "int-for-float": ((*SUMMARY, "transactions"), 4),
    "float-for-int": ((*SUMMARY, "n_warps"), 2.0),
    "bool-for-int": ((*SUMMARY, "bytes_requested"), True),
    "extra-field": ((*SUMMARY, "passes"), 1),
}


class TestRejection:
    def test_non_finite_summary_rejected(self):
        addrs = np.arange(64) * 4
        ev = _global_event(addrs, transactions=float("nan"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            generate_source(KEY, "k", [ev])

    def test_malformed_replay_rejected(self):
        for text in ("", "def (", "[]", "null", "REPLAY = (('bogus', None),)"):
            with pytest.raises(ValueError):
                compile_artifact(KEY, "k", text)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_invalid_field_rejected(self, name):
        doc = _valid_doc()
        (*parents, last), value = MALFORMED[name]
        node = doc
        for p in parents:
            node = node[p]
        node[last] = value
        with pytest.raises(ValueError):
            compile_artifact(KEY, "k", json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_literal_rejected(self, literal):
        text = json.dumps(_valid_doc()).replace(
            '"transactions": 4.0', f'"transactions": {literal}'
        )
        assert literal in text
        with pytest.raises(ValueError):
            compile_artifact(KEY, "k", text)
