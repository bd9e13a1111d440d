"""Activity capture + cross-process trace stitching."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs import (
    ActivitySink,
    TraceContext,
    fleet_chrome_trace,
    journal_chrome_trace,
    read_journal_entries,
    read_worker_activity,
    write_fleet_trace,
)
from repro.prof.activity import ActivityHub

HEADER = {"schema": "repro-journal/1", "run_id": "r1", "command": "sweep"}


def write_journal(path, fps, run_id="r1", metas=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({**HEADER, "run_id": run_id})]
    for i, fp in enumerate(fps):
        entry = {"job": fp, "payload": {"ok": True}}
        if metas is not None:
            entry["meta"] = metas[i]
        lines.append(json.dumps(entry))
    path.write_text("\n".join(lines) + "\n")


def make_fleet_dir(tmp_path, *, activity=True):
    """A minimal finished 2-worker fleet run: w0 won job 0, w1 job 1."""
    run_dir = tmp_path / "r1.fleet"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps({
        "run_id": "r1",
        "command": "sweep",
        "jobs": ["fp0", "fp1"],
        "specs": [{"benchmark": "MemAlign"}, {"benchmark": "CoMem"}],
    }))
    write_journal(run_dir / "journals" / "w0.ndjson", ["fp0"])
    write_journal(run_dir / "journals" / "w1.ndjson", ["fp1"])
    if activity:
        adir = run_dir / "activity"
        adir.mkdir()
        (adir / "w0.ndjson").write_text(json.dumps({
            "worker": "w0", "job": 0, "seq": 1, "kind": "kernel",
            "name": "copy_k", "track": "stream0",
            "start_s": 0.0, "end_s": 0.001, "dur_s": 0.001, "args": {},
        }) + "\n")
        (adir / "w1.ndjson").write_text(json.dumps({
            "worker": "w1", "job": 1, "seq": 1, "kind": "launch",
            "name": "launch_k", "track": "driver",
            "start_s": None, "end_s": None, "dur_s": None, "args": {},
        }) + "\n")
    return run_dir


def spans(trace):
    return [e for e in trace["traceEvents"] if e.get("cat") == "span"]


class TestActivitySink:
    def test_commit_publishes_only_buffered_job(self, tmp_path):
        path = tmp_path / "w0.ndjson"
        hub = ActivityHub()
        sink = ActivitySink(path, worker="w0")
        hub.subscribe(sink)
        hub.emit("kernel", "outside")          # before begin: dropped
        sink.begin(0)
        hub.emit("kernel", "inside")
        sink.commit()
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["name"] for l in lines] == ["inside"]
        assert lines[0]["worker"] == "w0"
        assert lines[0]["job"] == 0

    def test_abort_drops_failed_attempt(self, tmp_path):
        path = tmp_path / "w0.ndjson"
        hub = ActivityHub()
        sink = ActivitySink(path, worker="w0")
        hub.subscribe(sink)
        sink.begin(0)
        hub.emit("kernel", "doomed")
        sink.abort()                           # failed attempt
        sink.begin(0)
        hub.emit("kernel", "winner")
        sink.commit()
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["name"] for l in lines] == ["winner"]

    def test_commit_without_begin_is_noop(self, tmp_path):
        path = tmp_path / "w0.ndjson"
        sink = ActivitySink(path, worker="w0")
        sink.commit()
        sink.close()
        assert path.read_text() == ""


class TestReadWorkerActivity:
    def test_missing_dir_is_empty(self, tmp_path):
        assert read_worker_activity(tmp_path) == {}

    def test_torn_tail_skipped(self, tmp_path):
        adir = tmp_path / "activity"
        adir.mkdir()
        good = json.dumps({"worker": "w0", "job": 0, "name": "k"})
        (adir / "w0.ndjson").write_text(good + "\n" + '{"torn": ')
        lines = read_worker_activity(tmp_path)["w0"]
        assert [l["name"] for l in lines] == ["k"]

    def test_rejoined_sink_heals_torn_tail(self, tmp_path):
        # a re-joined worker with a stable --worker-id reopens the file
        # its killed predecessor tore mid-publish
        path = tmp_path / "activity" / "w0.ndjson"
        for job, name in ((0, "first"), (2, "after-rejoin")):
            hub = ActivityHub()
            sink = ActivitySink(path, worker="w0")
            hub.subscribe(sink)
            sink.begin(job)
            hub.emit("kernel", name)
            sink.commit()
            sink.close()
            if job == 0:
                with path.open("a") as fh:
                    fh.write('{"worker": "w0", "job": 1, "na')
        lines = read_worker_activity(tmp_path)["w0"]
        assert [(l["job"], l["name"]) for l in lines] == [
            (0, "first"), (2, "after-rejoin"),
        ]


class TestReadJournalEntries:
    def test_header_and_meta_preserved(self, tmp_path):
        path = tmp_path / "r1.ndjson"
        write_journal(path, ["fp0"], metas=[{"benchmark": "MemAlign", "job": 0}])
        header, entries = read_journal_entries(path)
        assert header["run_id"] == "r1"
        assert entries[0]["meta"]["benchmark"] == "MemAlign"

    def test_duplicate_fingerprint_first_wins(self, tmp_path):
        path = tmp_path / "r1.ndjson"
        path.write_text(
            json.dumps(HEADER) + "\n"
            + json.dumps({"job": "fp0", "payload": {"v": 1}}) + "\n"
            + json.dumps({"job": "fp0", "payload": {"v": 2}}) + "\n"
        )
        _, entries = read_journal_entries(path)
        assert len(entries) == 1
        assert entries[0]["payload"] == {"v": 1}

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no journal"):
            read_journal_entries(tmp_path / "ghost.ndjson")


class TestFleetStitch:
    def test_one_lane_per_worker(self, tmp_path):
        trace = fleet_chrome_trace(make_fleet_dir(tmp_path))
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {1, 10, 11}  # run lane + two worker lanes

    def test_exactly_one_root_span(self, tmp_path):
        trace = fleet_chrome_trace(make_fleet_dir(tmp_path))
        roots = [
            e for e in spans(trace)
            if "parent_span_id" not in e["args"]
        ]
        assert len(roots) == 1
        assert roots[0]["args"]["trace_id"] == TraceContext.root("r1").trace_id

    def test_job_spans_parent_to_root(self, tmp_path):
        trace = fleet_chrome_trace(make_fleet_dir(tmp_path))
        root = TraceContext.root("r1")
        jobs = [e for e in spans(trace) if "parent_span_id" in e["args"]]
        assert len(jobs) == 2
        assert all(e["args"]["parent_span_id"] == root.span_id for e in jobs)
        assert {e["args"]["span_id"] for e in jobs} == {
            root.job(0).span_id, root.job(1).span_id,
        }

    def test_device_records_land_in_winner_lane(self, tmp_path):
        trace = fleet_chrome_trace(make_fleet_dir(tmp_path))
        kernel = [
            e for e in trace["traceEvents"] if e.get("cat") == "kernel"
        ]
        assert len(kernel) == 1 and kernel[0]["pid"] == 10  # w0's lane

    def test_restitch_is_byte_identical(self, tmp_path):
        run_dir = make_fleet_dir(tmp_path)
        a = json.dumps(fleet_chrome_trace(run_dir))
        b = json.dumps(fleet_chrome_trace(run_dir))
        assert a == b

    def test_no_activity_still_stitches(self, tmp_path):
        trace = fleet_chrome_trace(make_fleet_dir(tmp_path, activity=False))
        assert len(spans(trace)) == 3  # root + 2 wrapper spans

    def test_missing_manifest_raises(self, tmp_path):
        run_dir = tmp_path / "bad.fleet"
        run_dir.mkdir()
        with pytest.raises(ReproError, match="manifest"):
            fleet_chrome_trace(run_dir)

    def test_unjournaled_job_raises(self, tmp_path):
        run_dir = make_fleet_dir(tmp_path)
        (run_dir / "manifest.json").write_text(json.dumps({
            "run_id": "r1", "jobs": ["fp0", "fp1", "fp-never"],
        }))
        with pytest.raises(ReproError, match="never journaled"):
            fleet_chrome_trace(run_dir)

    def test_write_fleet_trace(self, tmp_path):
        run_dir = make_fleet_dir(tmp_path)
        out = write_fleet_trace(run_dir, tmp_path / "out" / "trace.json")
        doc = json.loads(out.read_text())
        assert doc["otherData"]["run_id"] == "r1"


class TestJournalTrace:
    def test_spans_ordered_by_meta_ordinal(self, tmp_path):
        path = tmp_path / "r1.ndjson"
        # journaled out of order: ordinal 1 first (resume replay order)
        write_journal(path, ["fpB", "fpA"], metas=[
            {"benchmark": "CoMem", "job": 1},
            {"benchmark": "MemAlign", "job": 0},
        ])
        trace = journal_chrome_trace(path)
        jobs = [e for e in spans(trace) if "job" in e["args"]]
        assert [e["args"]["benchmark"] for e in jobs] == ["MemAlign", "CoMem"]
        assert jobs[0]["ts"] < jobs[1]["ts"]

    def test_trace_ignores_unstable_fields(self, tmp_path):
        a_path, b_path = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_journal(a_path, ["fp0"], metas=[{"benchmark": "X", "job": 0}])
        write_journal(
            b_path, ["fp0"],
            metas=[{"benchmark": "X", "job": 0, "attempts": 7, "source": "resume"}],
        )
        assert json.dumps(journal_chrome_trace(a_path)) == \
            json.dumps(journal_chrome_trace(b_path))

    def test_one_root_span(self, tmp_path):
        path = tmp_path / "r1.ndjson"
        write_journal(path, ["fp0", "fp1"])
        roots = [
            e for e in spans(journal_chrome_trace(path))
            if "parent_span_id" not in e["args"]
        ]
        assert len(roots) == 1
        assert roots[0]["args"]["run_id"] == "r1"
