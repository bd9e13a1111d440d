"""Flight recorder: bounded ring, atomic dumps, dump discovery."""

import json

import pytest

from repro.obs import (
    DEFAULT_CAPACITY,
    FLIGHT_FORMAT,
    FlightRecorder,
    list_flight_dumps,
    read_flight_dump,
)
from repro.prof.activity import ActivityHub, ActivityRecord


def rec(i, kind="kernel"):
    return ActivityRecord(kind=kind, name=f"k{i}", seq=i)


class TestRing:
    def test_keeps_only_last_capacity(self):
        fr = FlightRecorder(capacity=3)
        for i in range(10):
            fr(rec(i))
        assert len(fr) == 3
        assert [r.name for r in fr.records] == ["k7", "k8", "k9"]
        assert fr.dropped == 7

    def test_no_drops_under_capacity(self):
        fr = FlightRecorder(capacity=8)
        for i in range(5):
            fr(rec(i))
        assert fr.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_usable_as_hub_subscriber(self):
        hub = ActivityHub()
        fr = FlightRecorder(worker="w0")
        hub.subscribe(fr)
        hub.emit("kernel", "k0")
        hub.emit("sched", "k1")
        assert [r.name for r in fr.records] == ["k0", "k1"]


class TestDump:
    def test_dump_document(self, tmp_path):
        fr = FlightRecorder(worker="w2", run_id="r1", capacity=4)
        for i in range(6):
            fr(rec(i))
        path = fr.dump(tmp_path, reason="quarantine")
        assert path.name == "w2-quarantine.json"
        doc = read_flight_dump(path)
        assert doc["format"] == FLIGHT_FORMAT
        assert doc["worker"] == "w2"
        assert doc["run_id"] == "r1"
        assert doc["dropped"] == 2
        assert [r["name"] for r in doc["records"]] == ["k2", "k3", "k4", "k5"]

    def test_records_keep_the_job_in_flight(self, tmp_path):
        fr = FlightRecorder(worker="w0")
        fr(rec(0))                    # before the first claim
        for job in ("fp-a", "fp-b"):
            fr.job = job
            fr(rec(1))
        doc = read_flight_dump(fr.dump(tmp_path, reason="fatal"))
        assert [r["job"] for r in doc["records"]] == [None, "fp-a", "fp-b"]
        assert not any("trace_id" in r for r in doc["records"])

    def test_dump_creates_dir_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "flightrec" / "deep"
        FlightRecorder(worker="w0").dump(target, reason="crash")
        assert not list(target.glob(".*.tmp"))

    def test_anonymous_worker_gets_default_stem(self, tmp_path):
        path = FlightRecorder().dump(tmp_path, reason="exit")
        assert path.name == "worker-exit.json"


class TestRead:
    def test_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(ValueError, match=FLIGHT_FORMAT):
            read_flight_dump(bad)

    def test_rejects_non_object(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match=FLIGHT_FORMAT):
            read_flight_dump(bad)


class TestList:
    def test_missing_dir_is_empty(self, tmp_path):
        assert list_flight_dumps(tmp_path / "ghost") == []

    def test_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b-crash.json").write_text("{}")
        (tmp_path / "a-exit.json").write_text("{}")
        (tmp_path / ".a-exit.tmp").write_text("")
        (tmp_path / "notes.txt").write_text("")
        assert [p.name for p in list_flight_dumps(tmp_path)] == [
            "a-exit.json", "b-crash.json",
        ]
