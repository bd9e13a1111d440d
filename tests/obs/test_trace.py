"""Deterministic trace identity: same run id, same ids, always."""

import dataclasses

import pytest

from repro.obs import ROOT_SPAN_KEY, TraceContext, job_span_key, trace_id_for_run


class TestTraceIds:
    def test_trace_id_is_deterministic(self):
        assert trace_id_for_run("r1") == trace_id_for_run("r1")
        assert trace_id_for_run("r1") != trace_id_for_run("r2")

    def test_trace_id_shape(self):
        tid = trace_id_for_run("abc")
        assert len(tid) == 32
        int(tid, 16)  # hex

    def test_job_span_key(self):
        assert job_span_key(0) == "job:0"
        assert job_span_key(7) == "job:7"


class TestTraceContext:
    def test_root_has_no_parent(self):
        root = TraceContext.root("r1")
        assert root.parent_span_id is None
        assert root.trace_id == trace_id_for_run("r1")

    def test_child_links_to_parent(self):
        root = TraceContext.root("r1")
        child = root.child("phase:merge")
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id

    def test_job_is_child_keyed_by_ordinal(self):
        root = TraceContext.root("r1")
        assert root.job(3) == root.child(job_span_key(3))

    def test_same_key_same_span(self):
        root = TraceContext.root("r1")
        assert root.job(0).span_id == root.job(0).span_id
        assert root.job(0).span_id != root.job(1).span_id

    def test_any_process_mints_identical_ids(self):
        # the property fleet workers rely on: no shared state needed
        a = TraceContext.root("runx").job(2)
        b = TraceContext.root("runx").job(2)
        assert a == b

    def test_span_id_shape(self):
        span = TraceContext.root("r1").job(0).span_id
        assert len(span) == 16
        int(span, 16)

    def test_frozen(self):
        root = TraceContext.root("r1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.trace_id = "nope"


class TestDictRoundTrip:
    def test_root_key_stable(self):
        # ROOT_SPAN_KEY is part of the persisted-trace contract
        assert ROOT_SPAN_KEY == "run"
