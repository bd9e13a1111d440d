"""The ``--chaos`` spec: a one-flag grammar for scheduler fault plans.

CI and the command line describe a seeded scheduler-layer
:class:`~repro.faults.plan.FaultPlan` as a compact ``key=value`` list::

    --chaos seed=7,crash=0.4,hang=0.2,max-fault-attempts=2
    --chaos interrupt-after=1
    --chaos diverge=0;2,cache=0.5
    --chaos seed=3,fleet-kill=0.5,hb-stall=0.25,max-fault-attempts=1

Keys
----

===================  ==================================================
``seed``             root of every chaos decision (default 0)
``crash``            per-attempt worker-crash probability
``hang``             per-attempt worker-hang probability
``cache``            per-read torn-cache-entry probability
``max-fault-attempts``  attempts eligible for chaos per job (see
                     ``FaultPlan.sched_fault_attempts``)
``interrupt-after``  simulated SIGINT after N journaled jobs
``diverge``          ``;``-separated job ordinals that raise a fast-
                     backend divergence
``fleet-kill``       per-claim probability a fleet worker hard-exits
                     mid-lease (stolen by a surviving peer)
``hb-stall``         per-claim probability the lease owner stalls its
                     heartbeats past the TTL (duplicate completion)
``lease-corrupt``    per-claim probability the lease file is written
                     torn (peers steal immediately)
``skew``             clock-skew seconds: stealers judge leases stale
                     this much early (premature-steal path)
===================  ==================================================
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.faults.plan import FaultPlan

__all__ = ["parse_chaos"]

_FLOAT_KEYS = {
    "crash": "worker_crash_prob",
    "hang": "worker_hang_prob",
    "cache": "cache_corrupt_prob",
    "fleet-kill": "fleet_kill_prob",
    "hb-stall": "heartbeat_stall_prob",
    "lease-corrupt": "lease_corrupt_prob",
    "skew": "lease_skew_s",
}
_INT_KEYS = {
    "max-fault-attempts": "sched_fault_attempts",
    "interrupt-after": "interrupt_after_jobs",
}


def parse_chaos(spec: str) -> FaultPlan:
    """Parse a ``--chaos`` spec string into a scheduler fault plan."""
    seed = 0
    kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ReproError(
                f"bad chaos item {item!r}; expected key=value "
                "(e.g. crash=0.5)"
            )
        key, raw = item.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        try:
            if key == "seed":
                seed = int(raw, 0)
            elif key in _FLOAT_KEYS:
                kwargs[_FLOAT_KEYS[key]] = float(raw)
            elif key in _INT_KEYS:
                kwargs[_INT_KEYS[key]] = int(raw, 0)
            elif key == "diverge":
                kwargs["divergence_jobs"] = tuple(
                    int(v, 0) for v in raw.split(";") if v
                )
            else:
                known = ["seed", *_FLOAT_KEYS, *_INT_KEYS, "diverge"]
                raise ReproError(
                    f"unknown chaos key {key!r}; known: {', '.join(known)}"
                )
        except ValueError:
            raise ReproError(
                f"bad chaos value for {key!r}: {raw!r}"
            ) from None
    return FaultPlan(seed, **kwargs)
