"""Activity capture + cross-process trace stitching."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs import (
    ActivitySink,
    TraceContext,
    fleet_chrome_trace,
    write_fleet_trace,
)
from repro.prof.activity import ActivityHub
from repro.resilience import RunJournal
from repro.resilience.fleet import completions, read_logs, scan_completed

HEADER = {"schema": "repro-journal/1", "run_id": "r1", "command": "sweep"}

KERNEL = {
    "seq": 1, "kind": "kernel", "name": "copy_k", "track": "stream0",
    "start_s": 0.0, "end_s": 0.001, "dur_s": 0.001, "args": {},
}
LAUNCH = {
    "seq": 1, "kind": "launch", "name": "launch_k", "track": "driver",
    "start_s": None, "end_s": None, "dur_s": None, "args": {},
}


def write_journal(path, fps, run_id="r1", metas=None, activity=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({**HEADER, "run_id": run_id})]
    for i, fp in enumerate(fps):
        entry = {"job": fp, "payload": {"ok": True}}
        if metas is not None:
            entry["meta"] = metas[i]
        if activity is not None:
            entry["activity"] = activity[i]
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
    write_journal(
        run_dir / "journals" / "w0.ndjson", ["fp0"],
        activity=[[KERNEL]] if activity else None,
    )
    write_journal(
        run_dir / "journals" / "w1.ndjson", ["fp1"],
        activity=[[LAUNCH]] if activity else None,
    )
    return run_dir


def spans(trace):
    return [e for e in trace["traceEvents"] if e.get("cat") == "span"]


class TestActivitySink:
    def test_commit_publishes_only_buffered_job(self):
        hub = ActivityHub()
        sink = ActivitySink()
        hub.subscribe(sink)
        hub.emit("kernel", "outside")          # before begin: dropped
        sink.begin()
        hub.emit("kernel", "inside")
        lines = sink.take()
        assert [l["name"] for l in lines] == ["inside"]
        assert sink.take() == []                # taking clears

    def test_abort_drops_failed_attempt(self):
        hub = ActivityHub()
        sink = ActivitySink()
        hub.subscribe(sink)
        sink.begin()
        hub.emit("kernel", "doomed")           # failed attempt
        sink.begin()                           # the retry drops it
        hub.emit("kernel", "winner")
        assert [l["name"] for l in sink.take()] == ["winner"]

    def test_commit_without_begin_is_noop(self):
        assert ActivitySink().take() == []


class TestReadWorkerActivity:
    """A worker's activity is read back from its completion lines."""

    def test_missing_dir_is_empty(self, tmp_path):
        assert read_logs(tmp_path) == {}

    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "journals" / "w0.ndjson"
        write_journal(path, ["fp0"], activity=[[KERNEL]])
        with path.open("a") as fh:
            fh.write('{"job": "fp1", "payload": {}, "activity": [{"na')
        log = read_logs(tmp_path)["w0"]
        assert list(log.completions) == ["fp0"]
        assert log.completions["fp0"]["activity"] == [KERNEL]

    def test_rejoined_sink_heals_torn_tail(self, tmp_path):
        # a re-joined worker with a stable --worker-id reopens the log
        # its killed predecessor tore mid-append
        root = tmp_path / "journals"
        for job, name in (("fp0", "first"), ("fp2", "after-rejoin")):
            hub = ActivityHub()
            sink = ActivitySink()
            hub.subscribe(sink)
            sink.begin()
            hub.emit("kernel", name)
            with RunJournal.attach(root, run_id="w0") as journal:
                journal.record(job, {}, activity=sink.take())
            if job == "fp0":
                with journal.path.open("a") as fh:
                    fh.write('{"job": "fp1", "payload": {}, "activ')
        log = read_logs(tmp_path)["w0"]
        assert [
            (fp, [r["name"] for r in line["activity"]])
            for fp, line in log.completions.items()
        ] == [("fp0", ["first"]), ("fp2", ["after-rejoin"])]


class TestReadJournalEntries:
    """The run directory's journal readers, which the stitcher and
    ``repro journal show`` read through."""

    def test_header_and_meta_preserved(self, tmp_path):
        run_dir = tmp_path / "r1.fleet"
        write_journal(
            run_dir / "journals" / "w0.ndjson", ["fp0"],
            metas=[{"benchmark": "MemAlign", "job": 0}],
        )
        records = read_logs(run_dir)["w0"].completions
        # the header line is not a job; each job keeps its meta
        assert list(records) == ["fp0"]
        assert records["fp0"]["meta"]["benchmark"] == "MemAlign"

    def test_duplicate_fingerprint_first_wins(self, tmp_path):
        run_dir = tmp_path / "r1.fleet"
        for worker, value in (("w1", 2), ("w0", 1)):
            (run_dir / "journals").mkdir(parents=True, exist_ok=True)
            (run_dir / "journals" / f"{worker}.ndjson").write_text(
                json.dumps(HEADER) + "\n"
                + json.dumps({"job": "fp0", "payload": {"v": value}}) + "\n"
            )
        assert scan_completed(run_dir) == {"fp0": ("w0", {"v": 1})}
        assert [
            w for w, _ in completions(read_logs(run_dir))["fp0"]
        ] == ["w0", "w1"]


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
