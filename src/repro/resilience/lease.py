"""Atomic job leases for the distributed sweep fleet.

A fleet worker claims a job by *publishing* its lease file with an
exclusive :func:`~repro.common.durable.atomic_write`: the complete body
is written to a temporary file and hard-linked into place, which fails
if the lease exists — atomic on every POSIX filesystem, including the
shared network directories a multi-machine fleet coordinates through,
and never visible half-written.  The file body is a small
JSON document naming the owner, the lease *epoch* (how many times the
job has been claimed), and three wall-clock timestamps::

    {"schema": "repro-lease/1", "job": "<fingerprint>", "owner": "w1",
     "epoch": 0, "acquired_at": 1723180000.0, "heartbeat_at": 1723180003.2,
     "attempt_at": 1723180000.0}

``attempt_at`` is when the owner started its current attempt at the
job; the coordinator of a local run kills a worker whose attempt
outlives the job timeout (:mod:`~repro.resilience.fleet`).

While the owner works, a heartbeat republishes the file with a fresh
``heartbeat_at`` through :func:`~repro.common.durable.atomic_write`
(the "Durability" section of ``docs/resilience.md``).  A peer
that finds a lease whose heartbeat is older than the TTL — the owner
was SIGKILL'd, wedged, or unplugged — *steals* it: it renames the
stale file into ``stolen/`` (rename is atomic, so exactly one stealer
wins) and then re-acquires through the same exclusive publish with the
epoch bumped.  An unreadable or torn lease file (outside damage, a
chaos-injected corruption) is treated as immediately steal-eligible:
the remnant is quarantined into ``stolen/`` and the job re-claimed.
:meth:`LeaseDir.expire` makes a dead owner's lease stale at once, so
the next claim is a steal without waiting out the TTL.

None of this is load-bearing for *correctness* — job execution is
deterministic and the fleet merge is first-write-wins with checksum
cross-validation, so a premature steal (clock skew, an aggressive TTL)
only costs a duplicate computation.  Leases exist to make the common
case cheap: at most one worker per job, crash recovery bounded by one
TTL.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.common.durable import atomic_write, make_dirs
from repro.common.errors import ReproError

__all__ = [
    "LEASE_SCHEMA",
    "Lease",
    "LeaseDir",
    "LeaseUnavailable",
]

LEASE_SCHEMA = "repro-lease/1"


class LeaseUnavailable(ReproError):
    """The lease directory itself cannot be used (permissions, etc.)."""


@dataclass
class Lease:
    """One held claim on a job; returned by :meth:`LeaseDir.acquire`."""

    job: str
    owner: str
    epoch: int
    acquired_at: float
    heartbeat_at: float
    stolen_from: str | None = None   #: previous owner when epoch > 0
    attempt_at: float = 0.0          #: start of the owner's current attempt

    def as_dict(self) -> dict:
        return {
            "schema": LEASE_SCHEMA,
            "job": self.job,
            "owner": self.owner,
            "epoch": self.epoch,
            "acquired_at": self.acquired_at,
            "heartbeat_at": self.heartbeat_at,
            "attempt_at": self.attempt_at,
        }


class LeaseDir:
    """The lease directory of one fleet run.

    ``ttl_s`` is the staleness bound: a lease whose last heartbeat is
    older than the TTL may be stolen.  ``skew_s`` models a stealer
    whose clock runs ahead — staleness is judged ``skew_s`` seconds
    early (the chaos plan's ``skew`` key routes here).  ``now`` is
    injectable for tests.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        ttl_s: float = 5.0,
        skew_s: float = 0.0,
        now: Callable[[], float] = time.time,
    ) -> None:
        self.root = Path(root)
        self.ttl_s = float(ttl_s)
        self.skew_s = float(skew_s)
        self.now = now
        try:
            make_dirs(self.root)
        except OSError as exc:
            raise LeaseUnavailable(
                f"lease directory {self.root} is not writable: {exc}"
            ) from None

    # ------------------------------------------------------------------
    def path(self, job: str) -> Path:
        return self.root / f"{job}.lease"

    @staticmethod
    def _body(lease: Lease) -> bytes:
        return json.dumps(lease.as_dict(), separators=(",", ":")).encode()

    # ------------------------------------------------------------------
    def acquire(
        self, job: str, owner: str, *, epoch: int = 0,
        stolen_from: str | None = None, torn: bool = False,
    ) -> Lease | None:
        """Claim ``job`` for ``owner``; None when held by a live peer.

        The claim is an exclusive :func:`~repro.common.durable.
        atomic_write` (a hard-link publish), so between two racing
        workers exactly one returns a :class:`Lease` and the other None,
        and no reader ever sees a half-written lease.  ``torn`` (chaos)
        publishes half a body instead.
        """
        t = self.now()
        lease = Lease(
            job=job, owner=owner, epoch=epoch,
            acquired_at=t, heartbeat_at=t, stolen_from=stolen_from,
            attempt_at=t,
        )
        body = self._body(lease)
        if torn:
            body = body[: max(1, len(body) // 2)]
        try:
            if not atomic_write(self.path(job), body, exclusive=True):
                return None
        except OSError as exc:
            raise LeaseUnavailable(
                f"cannot create lease for job {job[:12]}: {exc}"
            ) from None
        return lease

    def read(self, job: str) -> Lease | None:
        """The current lease of ``job``; None if absent or unreadable.

        A *torn* lease (present but unparsable) raises ``ValueError``
        so callers can distinguish "free" from "corrupt" — corrupt
        leases are steal-eligible immediately.
        """
        try:
            text = self.path(job).read_text()
        except OSError:
            return None
        return self._parse(text)

    @staticmethod
    def _parse(text: str | bytes) -> Lease:
        obj = json.loads(text)   # ValueError/JSONDecodeError → corrupt
        if obj.get("schema") != LEASE_SCHEMA:
            raise ValueError(f"lease has schema {obj.get('schema')!r}")
        return Lease(
            job=obj["job"], owner=obj["owner"], epoch=int(obj["epoch"]),
            acquired_at=float(obj["acquired_at"]),
            heartbeat_at=float(obj["heartbeat_at"]),
            attempt_at=float(obj.get("attempt_at", obj["acquired_at"])),
        )

    def held(self) -> list[Lease]:
        """Every readable lease in the directory; torn ones are skipped."""
        out = []
        for path in sorted(self.root.glob("*.lease")):
            try:
                lease = self.read(path.name[: -len(".lease")])
            except ValueError:
                continue
            if lease is not None:
                out.append(lease)
        return out

    def is_stale(self, lease: Lease) -> bool:
        """Has the owner missed enough heartbeats to lose the lease?"""
        return (self.now() + self.skew_s) - lease.heartbeat_at > self.ttl_s

    # ------------------------------------------------------------------
    def claim(self, job: str, owner: str) -> Lease | None:
        """Acquire ``job``, stealing a stale or corrupt lease if needed.

        Returns None when the job is validly held by a live peer; the
        lease is read first, so that answer costs no write.  A lease
        held under ``owner``'s own id is taken over at once: a worker
        id is live in at most one process (the worker also owns
        ``journals/<id>.ndjson``), so such a lease is a dead
        incarnation's — a killed serial run being resumed, or a
        restarted server re-executing a request.  The steal path
        renames the old lease into ``stolen/`` first — rename is
        atomic, so two stealers racing on the same stale lease resolve
        to exactly one winner (the loser sees ``FileNotFoundError``, or
        finds it moved the winner's new lease and puts it back, and
        reports the job as held).  A claim then moves past the epochs
        of the job's evicted leases, so one landing in a steal's window
        repeats no epoch, nor chaos keyed on it.
        """
        lease = self._claim(job, owner)
        if lease is None:
            return None
        floor = len(list(self.root.glob(f"stolen/{job}.*.lease")))
        if lease.epoch < floor and self._holds(lease):
            try:
                atomic_write(
                    self.path(job), self._body(replace(lease, epoch=floor))
                )
                lease.epoch = floor
            except OSError:
                pass
        return lease

    def _claim(self, job: str, owner: str) -> Lease | None:
        # read before writing: a live peer's lease costs no publish
        try:
            current = self.read(job)
        except ValueError:
            current = None       # torn on disk: steal-eligible now
            corrupt = True
        else:
            corrupt = False
            if current is None:
                return self.acquire(job, owner)
            if current.owner != owner and not self.is_stale(current):
                return None
        if not self._evict(job, current):
            return None          # another stealer got there first
        epoch = (current.epoch + 1) if current is not None else 1
        prev = current.owner if current is not None else (
            "<corrupt>" if corrupt else None
        )
        return self.acquire(job, owner, epoch=epoch, stolen_from=prev)

    def _evict(self, job: str, judged: Lease | None) -> bool:
        """Move the lease judged stale (None: corrupt) into ``stolen/``.

        True if we won.  A peer may have stolen the lease between the
        caller's read and this rename; the moved file is then the
        peer's fresh lease, which is put back and the job reported
        held.
        """
        dest = self.root / "stolen" / f"{job}.{uuid.uuid4().hex[:8]}.lease"
        try:
            make_dirs(dest.parent)
            os.rename(self.path(job), dest)
        except FileNotFoundError:
            return False
        except OSError as exc:  # pragma: no cover - cross-device etc.
            raise LeaseUnavailable(
                f"cannot evict stale lease for job {job[:12]}: {exc}"
            ) from None
        body = dest.read_bytes()
        try:
            moved = self._parse(body)
        except ValueError:
            moved = None
        if moved == judged:
            return True
        try:
            # republished exclusively: a third claim may hold the path now
            if atomic_write(self.path(job), body, exclusive=True):
                dest.unlink()
        except OSError:
            pass
        return False

    # ------------------------------------------------------------------
    def _holds(self, lease: Lease) -> bool:
        """Is ``lease`` still on disk (same owner and epoch)?  The window
        before a write is unavoidable without fcntl locks (which NFS
        breaks); a loss in it costs one validated duplicate completion.
        """
        try:
            current = self.read(lease.job)
        except ValueError:
            return False
        return (
            current is not None and current.owner == lease.owner
            and current.epoch == lease.epoch
        )

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh the lease's heartbeat; False when the lease was lost.

        The rewrite is an atomic publish, made only while the lease is
        still held, so a stalled worker whose lease was stolen does not
        clobber the thief's claim.
        """
        if not self._holds(lease):
            return False
        lease.heartbeat_at = self.now()
        try:
            atomic_write(self.path(lease.job), self._body(lease))
        except OSError:
            return False
        return True

    def expire(self, lease: Lease) -> None:
        """Make a dead owner's lease stale in place: the next claim
        steals it at ``epoch + 1`` without waiting out the TTL.  A lease
        a peer has stolen since (another owner or epoch on disk) is left
        alone."""
        if not self._holds(lease):
            return
        lease.heartbeat_at = 0.0
        try:
            atomic_write(self.path(lease.job), self._body(lease))
        except OSError:
            pass

    def release(self, lease: Lease) -> bool:
        """Drop the lease after the job is journaled; False if lost."""
        if not self._holds(lease):
            return False
        try:
            os.unlink(self.path(lease.job))
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    def sweep_stale(self) -> dict[str, int]:
        """GC helper: drop expired leases and steal remnants.

        Returns counters for ``repro journal gc``: leases evicted (the
        owner is gone past TTL with nobody left to steal) and
        ``stolen/`` remnants removed.
        """
        evicted = 0
        for path in sorted(self.root.glob("*.lease")):
            job = path.name[: -len(".lease")]
            try:
                lease = self.read(job)
            except ValueError:
                lease = None
            if lease is None or self.is_stale(lease):
                if self._evict(job, lease):
                    evicted += 1
        remnants = 0
        for path in sorted((self.root / "stolen").glob("*.lease")):
            try:
                path.unlink()
                remnants += 1
            except OSError:
                pass
        for path in sorted(self.root.glob("*.tmp")):
            try:
                path.unlink()
            except OSError:
                pass
        return {"evicted": evicted, "remnants": remnants}
