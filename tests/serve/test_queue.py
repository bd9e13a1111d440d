"""DurableQueue: accepted means persisted; idempotent resubmission."""

import json
import random

import pytest

from repro.serve.queue import DurableQueue
from repro.serve.recovery import recover
from repro.serve.request import STATES, parse_request


def sweep_request(values=(4096, 8192), **over):
    doc = {"kind": "sweep", "benchmark": "MemAlign", "values": list(values)}
    doc.update(over)
    return parse_request(doc)


@pytest.fixture()
def queue(tmp_path):
    q = DurableQueue(tmp_path / "data")
    yield q
    q.close()


class TestSubmit:
    def test_submit_persists_before_returning(self, queue):
        entry, dup = queue.submit(sweep_request())
        assert not dup
        state = queue.data_dir / "requests" / f"{entry.id}.json"
        assert state.exists()
        doc = json.loads(state.read_text())
        assert doc["state"] == "queued"
        assert doc["fingerprint"] == entry.request.fingerprint
        intake = (queue.data_dir / "intake.ndjson").read_text().splitlines()
        assert any(entry.id in line for line in intake)

    def test_duplicate_maps_to_original(self, queue):
        first, _ = queue.submit(sweep_request())
        second, dup = queue.submit(sweep_request())
        assert dup
        assert second.id == first.id
        assert queue.depth() == 1  # not double-enqueued

    def test_distinct_requests_distinct_entries(self, queue):
        a, _ = queue.submit(sweep_request())
        b, _ = queue.submit(sweep_request(values=[1024]))
        assert a.id != b.id
        assert queue.depth() == 2

    def test_failed_duplicate_rearms(self, queue):
        entry, _ = queue.submit(sweep_request())
        claimed = queue.claim()
        queue.fail(claimed, "boom")
        assert entry.state == "failed"
        again, dup = queue.submit(sweep_request())
        assert dup
        assert again.id == entry.id
        assert again.state == "queued"
        assert queue.depth() == 1

    def test_done_duplicate_stays_done(self, queue):
        queue.submit(sweep_request())
        claimed = queue.claim()
        queue.complete(claimed, claimed.request.fingerprint)
        again, dup = queue.submit(sweep_request())
        assert dup
        assert again.state == "done"
        assert queue.depth() == 0


class TestClaimAndTransitions:
    def test_claim_is_fifo_and_leases(self, queue):
        a, _ = queue.submit(sweep_request())
        queue.submit(sweep_request(values=[1024]))
        claimed = queue.claim()
        assert claimed.id == a.id
        assert claimed.state == "running"
        assert claimed.attempts == 1

    def test_complete_releases_lease_and_persists(self, queue):
        queue.submit(sweep_request())
        claimed = queue.claim()
        queue.complete(claimed, "fp123")
        assert claimed.state == "done"
        assert claimed.result_fingerprint == "fp123"
        doc = json.loads(
            (queue.data_dir / "requests" / f"{claimed.id}.json").read_text()
        )
        assert doc["state"] == "done"
        assert doc["result_fingerprint"] == "fp123"

    def test_expire_is_terminal_with_error(self, queue):
        queue.submit(sweep_request())
        claimed = queue.claim()
        queue.expire(claimed, "deadline of 10ms expired")
        assert claimed.state == "expired"
        assert "deadline" in claimed.error

    def test_requeue_returns_to_pending(self, queue):
        queue.submit(sweep_request())
        claimed = queue.claim()
        queue.requeue(claimed)
        assert claimed.state == "queued"
        assert queue.depth() == 1

    def test_claim_timeout_returns_none(self, queue):
        assert queue.claim(timeout=0.01) is None


class TestDurability:
    def test_torn_intake_tail_tolerated(self, queue):
        entry, _ = queue.submit(sweep_request())
        path = queue.data_dir / "intake.ndjson"
        with path.open("a") as fh:
            fh.write('{"id": "torn-req", "seq"')  # crash mid-append
        lines = DurableQueue._read_intake(path)
        assert [line["id"] for line in lines] == [entry.id]

    def test_torn_intake_tail_healed_before_next_accept(self, queue):
        from repro.serve.recovery import recover

        queue.submit(sweep_request())
        queue.close()
        path = queue.data_dir / "intake.ndjson"
        with path.open("a") as fh:
            fh.write('{"id": "torn-req", "seq"')  # crash mid-append
        restarted = DurableQueue(queue.data_dir)
        recover(restarted)
        entry, _ = restarted.submit(sweep_request(values=(16384,)))
        restarted.close()
        # the acknowledged request is journaled on its own line, not
        # glued onto the torn fragment
        ids = [line["id"] for line in DurableQueue._read_intake(path)]
        assert entry.id in ids
        # so the intake backstop can still rebuild it
        restarted._state_path(entry.id).unlink()
        again = DurableQueue(queue.data_dir)
        try:
            assert recover(again).rebuilt_from_intake == 1
            assert again.get(entry.id) is not None
        finally:
            again.close()

    def test_result_roundtrip(self, queue):
        text = '{"schema": "repro-prof-bench/1"}\n'
        queue.put_result("abc123", text)
        assert queue.get_result("abc123") == text.encode()
        assert queue.get_result("missing") is None


class TestAccounting:
    def test_counts_and_client_load(self, queue):
        queue.submit(sweep_request())
        queue.submit(sweep_request(values=[1024]))
        claimed = queue.claim()
        counts = queue.counts()
        assert counts["running"] == 1
        assert counts["queued"] == 1
        assert queue.inflight() == 1
        assert queue.client_load("anon") == 2
        queue.complete(claimed, "fp")
        assert queue.client_load("anon") == 1


class TestCountsMatchScan:
    """The per-state and per-client counts kept on every transition equal
    a full scan of the entries after every step, across a recovery."""

    CLIENTS = ("anon", "alice", "bob")

    @classmethod
    def assert_counts_match_scan(cls, queue):
        states = {state: 0 for state in STATES}
        open_by_client = {client: 0 for client in cls.CLIENTS}
        for e in queue._entries.values():
            states[e.state] += 1
            if e.state in ("queued", "running"):
                open_by_client[e.request.client] += 1
        assert queue.counts() == states
        assert queue.inflight() == states["running"]
        for client, n in open_by_client.items():
            assert queue.client_load(client) == n

    @classmethod
    def random_steps(cls, queue, rng, submitted, steps):
        running = [e for e in queue._entries.values() if e.state == "running"]
        for _ in range(steps):
            op = rng.choice(
                ["submit", "submit", "duplicate", "claim", "claim",
                 "complete", "fail", "expire", "requeue"]
            )
            if op == "submit":
                doc = {"kind": "sweep", "benchmark": "MemAlign",
                       "values": [rng.randrange(1 << 30)]}
                submitted.append(doc)
                queue.submit(parse_request(doc, client=rng.choice(cls.CLIENTS)))
            elif op == "duplicate" and submitted:
                # re-arms the original when it failed or expired
                doc = rng.choice(submitted)
                queue.submit(parse_request(doc, client=rng.choice(cls.CLIENTS)))
            elif op == "claim":
                entry = queue.claim(timeout=0)
                if entry is not None:
                    running.append(entry)
            elif running:
                entry = running.pop(rng.randrange(len(running)))
                if op == "complete":
                    queue.complete(entry, "fp")
                elif op == "requeue":
                    queue.requeue(entry)
                else:
                    getattr(queue, op)(entry, "boom")
            cls.assert_counts_match_scan(queue)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_lifecycle_then_recovery(self, tmp_path, seed):
        rng = random.Random(seed)
        submitted = []
        first = DurableQueue(tmp_path / "data")
        self.random_steps(first, rng, submitted, 80)
        assert first.counts()["running"] and first.counts()["done"]
        first.close()  # as if killed: running entries stay running
        second = DurableQueue(tmp_path / "data")
        recover(second)
        self.assert_counts_match_scan(second)
        assert second.counts()["running"] == 0
        self.random_steps(second, rng, submitted, 40)
        second.close()
