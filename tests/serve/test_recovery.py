"""Crash recovery: a restarted queue replays its data dir faithfully."""

import pytest

from repro.serve.queue import DurableQueue
from repro.serve.recovery import recover
from repro.serve.request import parse_request


def sweep_request(values=(4096, 8192), **over):
    doc = {"kind": "sweep", "benchmark": "MemAlign", "values": list(values)}
    doc.update(over)
    return parse_request(doc)


@pytest.fixture()
def data_dir(tmp_path):
    return tmp_path / "data"


def restart(data_dir):
    """A fresh incarnation over the same data dir, recovered."""
    queue = DurableQueue(data_dir)
    summary = recover(queue)
    return queue, summary


class TestRecovery:
    def test_queued_entries_requeued_in_order(self, data_dir):
        first = DurableQueue(data_dir)
        a, _ = first.submit(sweep_request())
        b, _ = first.submit(sweep_request(values=[1024]))
        first.close()

        queue, summary = restart(data_dir)
        assert summary.requests == 2
        assert summary.requeued == 2
        assert summary.releases == 0
        assert queue.claim().id == a.id
        assert queue.claim().id == b.id
        queue.close()

    def test_running_entry_released_and_requeued(self, data_dir):
        first = DurableQueue(data_dir)
        first.submit(sweep_request())
        claimed = first.claim()
        # crash: no close bookkeeping

        queue, summary = restart(data_dir)
        assert summary.releases == 1
        assert summary.requeued == 1
        entry = queue.get(claimed.id)
        assert entry.state == "queued"
        reclaimed = queue.claim()
        assert reclaimed.id == claimed.id
        assert reclaimed.attempts == 2  # persisted attempt survived
        queue.close()

    def test_terminal_entries_stay_done_with_results(self, data_dir):
        first = DurableQueue(data_dir)
        first.submit(sweep_request())
        claimed = first.claim()
        text = '{"schema": "repro-prof-bench/1"}\n'
        first.put_result(claimed.request.fingerprint, text)
        first.complete(claimed, claimed.request.fingerprint)
        first.close()

        queue, summary = restart(data_dir)
        assert summary.completed == 1
        assert summary.requeued == 0
        entry = queue.by_fingerprint(claimed.request.fingerprint)
        assert entry.state == "done"
        assert queue.get_result(claimed.request.fingerprint) == text.encode()
        assert queue.depth() == 0
        queue.close()

    def test_intake_backstop_rebuilds_lost_state_file(self, data_dir):
        first = DurableQueue(data_dir)
        entry, _ = first.submit(sweep_request())
        first.close()
        # crash scenario: the fsync'd intake line landed but the state
        # file did not
        (data_dir / "requests" / f"{entry.id}.json").unlink()

        queue, summary = restart(data_dir)
        assert summary.rebuilt_from_intake == 1
        rebuilt = queue.get(entry.id)
        assert rebuilt.state == "queued"
        assert rebuilt.request.fingerprint == entry.request.fingerprint
        assert queue.claim().id == entry.id
        queue.close()

    @pytest.mark.parametrize("lost_state_file", [False, True])
    def test_check_entry_keeps_its_fingerprint_without_claims(
        self, data_dir, monkeypatch, lost_state_file
    ):
        # a check's fingerprint reads the claim files, which a restart
        # elsewhere cannot: recovery restores the accepted fingerprint
        first = DurableQueue(data_dir)
        entry, _ = first.submit(
            parse_request({"kind": "check", "benchmarks": ["MemAlign"]})
        )
        first.close()
        if lost_state_file:
            (data_dir / "requests" / f"{entry.id}.json").unlink()
        monkeypatch.chdir(data_dir)

        queue, _ = restart(data_dir)
        recovered = queue.get(entry.id)
        assert recovered.request.fingerprint == entry.request.fingerprint
        queue.close()

    def test_duplicate_submission_after_restart_maps_to_recovered(
        self, data_dir
    ):
        first = DurableQueue(data_dir)
        entry, _ = first.submit(sweep_request())
        first.close()

        queue, _ = restart(data_dir)
        again, dup = queue.submit(sweep_request())
        assert dup
        assert again.id == entry.id
        assert queue.depth() == 1
        queue.close()

    def test_sequence_counter_resumes_past_recovered(self, data_dir):
        first = DurableQueue(data_dir)
        a, _ = first.submit(sweep_request())
        first.close()

        queue, _ = restart(data_dir)
        b, _ = queue.submit(sweep_request(values=[1024]))
        assert b.seq > a.seq
        queue.close()
