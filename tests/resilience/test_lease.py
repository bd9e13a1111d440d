"""Atomic lease files: O_EXCL claims, heartbeats, rename-based steals.

Every test drives the staleness clock through the injectable ``now``
callable, so no test sleeps for a real TTL.
"""

import json
import os

import pytest

from repro.resilience.lease import LEASE_SCHEMA, Lease, LeaseDir

FP = "a" * 16   # a job fingerprint; leases never parse it


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def leases(tmp_path, clock) -> LeaseDir:
    return LeaseDir(tmp_path / "leases", ttl_s=5.0, now=clock)


class TestAcquire:
    def test_first_acquire_wins(self, leases):
        lease = leases.acquire(FP, "w1")
        assert lease is not None
        assert lease.owner == "w1"
        assert lease.epoch == 0
        assert leases.path(FP).exists()

    def test_second_acquire_loses(self, leases):
        assert leases.acquire(FP, "w1") is not None
        assert leases.acquire(FP, "w2") is None

    def test_lease_body_roundtrips(self, leases):
        leases.acquire(FP, "w1")
        body = json.loads(leases.path(FP).read_text())
        assert body["schema"] == LEASE_SCHEMA
        got = leases.read(FP)
        assert got is not None and got.owner == "w1"

    def test_read_absent_is_none(self, leases):
        assert leases.read(FP) is None

    def test_torn_write_leaves_corrupt_lease(self, leases):
        leases.acquire(FP, "w1", torn=True)
        with pytest.raises(ValueError):
            leases.read(FP)


class TestClaimAndSteal:
    def test_claim_fresh_job(self, leases):
        lease = leases.claim(FP, "w1")
        assert lease is not None and lease.epoch == 0

    def test_live_lease_is_not_stolen(self, leases, clock):
        leases.claim(FP, "w1")
        clock.advance(4.0)           # within TTL
        assert leases.claim(FP, "w2") is None

    def test_stale_lease_is_stolen_with_epoch_bump(self, leases, clock):
        leases.claim(FP, "w1")
        clock.advance(6.0)           # past TTL
        stolen = leases.claim(FP, "w2")
        assert stolen is not None
        assert stolen.epoch == 1
        assert stolen.stolen_from == "w1"
        # the old lease was quarantined, not deleted in place
        assert list((leases.root / "stolen").glob("*.lease"))

    def test_corrupt_lease_is_stolen_immediately(self, leases):
        leases.acquire(FP, "w1", torn=True)
        stolen = leases.claim(FP, "w2")
        assert stolen is not None
        assert stolen.epoch == 1
        assert stolen.stolen_from == "<corrupt>"

    def test_clock_skew_makes_steals_premature(self, tmp_path, clock):
        skewed = LeaseDir(
            tmp_path / "leases", ttl_s=5.0, skew_s=10.0, now=clock
        )
        skewed.claim(FP, "w1")
        clock.advance(0.1)           # fresh by a fair clock
        stolen = skewed.claim(FP, "w2")
        assert stolen is not None and stolen.epoch == 1

    def test_own_id_lease_is_taken_over_at_once(self, tmp_path):
        """A fresh lease under the claimant's own id belongs to a dead
        incarnation of that worker: it is taken over without waiting
        out the TTL, while a peer still respects it."""
        leases = LeaseDir(tmp_path / "leases", ttl_s=60)
        leases.acquire(FP, "r")
        assert leases.claim(FP, "w2") is None
        taken = leases.claim(FP, "r")
        assert taken is not None
        assert taken.epoch == 1
        assert taken.stolen_from == "r"
        assert leases.claim(FP, "w2") is None

    def test_evict_race_single_winner(self, leases, clock):
        leases.claim(FP, "w1")
        clock.advance(6.0)
        stale = leases.read(FP)
        assert leases._evict(FP, stale) is True
        assert leases._evict(FP, stale) is False   # the loser of the rename race

    def test_held_job_costs_no_write(self, leases, clock, monkeypatch):
        # an idle worker polls every held job: each poll is a read only
        leases.claim(FP, "w1")
        clock.advance(4.0)           # within TTL
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        assert leases.claim(FP, "w2") is None
        assert fsyncs == []
        assert [p.name for p in leases.root.iterdir()] == [f"{FP}.lease"]


    def test_claim_in_a_steals_window_takes_the_next_epoch(
        self, leases, clock
    ):
        # A claims and dies; S's steal evicts A's lease, and F's fresh
        # claim lands before S re-acquires
        assert leases.claim(FP, "A") is not None
        clock.advance(leases.ttl_s + 1)
        assert leases._evict(FP, leases.read(FP))
        fresh = leases.claim(FP, "F")
        assert (fresh.owner, fresh.epoch) == ("F", 1)
        assert leases.read(FP).epoch == 1
        assert leases.heartbeat(fresh)
        assert leases.acquire(FP, "S", epoch=1, stolen_from="A") is None

    def test_stale_read_does_not_evict_a_new_steal(
        self, leases, clock, monkeypatch
    ):
        # S1 reads A's stale lease, S2 steals it, then S1 evicts: the
        # file S1 moves is S2's new lease, which goes back in place
        assert leases.claim(FP, "A") is not None
        clock.advance(leases.ttl_s + 1)
        stale = leases.read(FP)
        thief = leases.claim(FP, "S2")
        assert (thief.owner, thief.epoch) == ("S2", 1)
        reads = iter([stale])
        read = leases.read
        monkeypatch.setattr(
            leases, "read", lambda job: next(reads, None) or read(job)
        )
        assert leases.claim(FP, "S1") is None
        current = read(FP)
        assert (current.owner, current.epoch) == ("S2", 1)
        assert leases.heartbeat(thief)
        # only A's lease was evicted
        assert len(list((leases.root / "stolen").glob("*.lease"))) == 1


class TestHeartbeat:
    def test_heartbeat_refreshes_staleness(self, leases, clock):
        lease = leases.claim(FP, "w1")
        clock.advance(4.0)
        assert leases.heartbeat(lease) is True
        clock.advance(4.0)           # 8s since acquire, 4s since beat
        assert leases.claim(FP, "w2") is None

    def test_heartbeat_after_steal_is_lost(self, leases, clock):
        lease = leases.claim(FP, "w1")
        clock.advance(6.0)
        assert leases.claim(FP, "w2") is not None
        assert leases.heartbeat(lease) is False
        current = leases.read(FP)
        assert current is not None and current.owner == "w2"

    def test_release_after_steal_reports_loss(self, leases, clock):
        lease = leases.claim(FP, "w1")
        clock.advance(6.0)
        leases.claim(FP, "w2")
        assert leases.release(lease) is False

    def test_release_drops_the_file(self, leases):
        lease = leases.claim(FP, "w1")
        assert leases.release(lease) is True
        assert not leases.path(FP).exists()


class TestExpire:
    def test_expire_makes_the_dead_owners_lease_stealable(self, leases):
        dead = leases.claim(FP, "A")
        leases.expire(dead)
        stolen = leases.claim(FP, "B")
        assert (stolen.owner, stolen.epoch, stolen.stolen_from) == ("B", 1, "A")

    def test_expire_after_a_steal_leaves_the_thief_alone(self, leases, clock):
        # A claims and dies; the coordinator's scan still holds A's lease
        assert leases.claim(FP, "A") is not None
        [seen] = leases.held()
        # A's lease outlives its TTL and B steals it at epoch 1
        clock.advance(leases.ttl_s + 1)
        thief = leases.claim(FP, "B")
        assert (thief.owner, thief.epoch) == ("B", 1)
        # the coordinator now expires what it saw: B's lease stays put
        leases.expire(seen)
        assert leases.read(FP).owner == "B"
        assert leases.heartbeat(thief)
        assert leases.claim(FP, "C") is None


class TestSweepStale:
    def test_sweeps_expired_and_remnants(self, leases, clock):
        leases.claim("a" * 16, "w1")
        leases.claim("b" * 16, "w1")
        clock.advance(6.0)
        live = leases.claim("c" * 16, "w2")   # fresh, must survive
        (leases.root / "junk.tmp").write_text("")
        swept = leases.sweep_stale()
        assert swept["evicted"] == 2
        assert swept["remnants"] == 2         # the two evicted files
        assert leases.read(live.job).owner == "w2"
        assert not list(leases.root.glob("*.tmp"))

    def test_corrupt_lease_counts_as_stale(self, leases):
        leases.acquire(FP, "w1", torn=True)
        assert leases.sweep_stale()["evicted"] == 1
