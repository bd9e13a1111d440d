"""``repro.serve`` — crash-tolerant benchmark-as-a-service.

The long-lived daemon behind ``repro serve``: run/sweep/profile/check
requests over HTTP, executed through the supervised scheduler of
:mod:`repro.sched` + :mod:`repro.resilience`, with the robustness
planes a production service needs — a durable request queue (accepted
means persisted; ``kill -9`` loses nothing), idempotency keys derived
from job fingerprints, admission control with ``429``/``Retry-After``
backpressure, request deadlines propagated into per-job timeouts,
per-benchmark circuit breakers, and graceful SIGTERM drain.

Layering::

    request.py    validation + fingerprints (the idempotency keys)
    queue.py      fsync'd intake journal + atomic state files + FIFO
    admission.py  queue-depth / per-client caps, Retry-After estimator
    breaker.py    per-benchmark closed/open/half-open circuits
    executor.py   one request → the same code path the CLI runs
    recovery.py   restart replays the data dir before /readyz flips
    server.py     ServeDaemon: HTTP front + worker pool + drain
    client.py     stdlib urllib client (CLI, tests, CI smoke)
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.client import ServeClient, ServeRejected
from repro.serve.executor import ExecutionOutcome, execute_request
from repro.serve.queue import DurableQueue, QueueEntry
from repro.serve.recovery import RecoverySummary, recover
from repro.serve.request import (
    BadRequest,
    ServeRequest,
    parse_request,
    request_fingerprint,
)
from repro.serve.server import ServeDaemon

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BadRequest",
    "BreakerBoard",
    "CircuitBreaker",
    "DurableQueue",
    "ExecutionOutcome",
    "QueueEntry",
    "RecoverySummary",
    "ServeClient",
    "ServeDaemon",
    "ServeRejected",
    "ServeRequest",
    "execute_request",
    "parse_request",
    "recover",
    "request_fingerprint",
]
