"""The ``repro serve`` daemon: HTTP front, worker pool, drain logic.

One :class:`ServeDaemon` owns the four robustness planes the serve
package provides and wires them to a hardened stdlib HTTP server
(:mod:`repro.common.httpd`):

* :class:`~repro.serve.queue.DurableQueue` — accepted means persisted;
* :class:`~repro.serve.admission.AdmissionController` — 429 +
  ``Retry-After`` at the door instead of latency collapse inside;
* :class:`~repro.serve.breaker.BreakerBoard` — poisoned benchmarks
  fail fast with 503;
* :func:`~repro.serve.recovery.recover` — a restart replays the data
  dir before ``/readyz`` goes ready.

Endpoints::

    POST /v1/jobs                submit (202; 200 on finished duplicate)
    GET  /v1/jobs/<id>           status; ?watch=1 streams NDJSON progress
    GET  /v1/results/<fp>        finished result document (byte-identical
                                 to the serial CLI; 409/504/404 otherwise)
    GET  /healthz                liveness (204)
    GET  /readyz                 readiness = recovery done ∧ not draining
                                 ∧ queue below high water
    GET  /metrics                Prometheus 0.0.4 text, repro_serve_* series

Graceful drain: SIGTERM (wired by the CLI) calls :meth:`ServeDaemon.
drain` — intake flips to 503, workers finish their current request
(journals flush per checkpoint as always), queued requests stay
durable for the next incarnation, and the listening socket closes
cleanly.  Exit code 0 when nothing was pending, 4 ("interrupted;
journal saved") when queued or in-flight work remains for a restart.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.common.httpd import HardenedHandler, HardenedHTTPServer
from repro.obs.metrics import Sample
from repro.serve.admission import AdmissionController
from repro.serve.breaker import BreakerBoard
from repro.serve.executor import execute_request, request_run_dir
from repro.serve.queue import DurableQueue, QueueEntry
from repro.serve.recovery import RecoverySummary, recover
from repro.serve.request import BadRequest, parse_request

__all__ = ["ServeDaemon"]

#: request-body bound for POST /v1/jobs (413 past this)
MAX_BODY_BYTES = 1 << 20

#: how long one watch poll waits before re-reading the run directory
_WATCH_POLL_S = 0.5

#: the ``fleet_status`` counts a watch stream's progress line carries
_PROGRESS_KEYS = (
    "jobs_total", "jobs_completed", "jobs_remaining", "quarantined",
)

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

_BREAKER_STATE_VALUE = {"closed": 0, "half-open": 1, "open": 2}


class ServeDaemon:
    """Benchmark-as-a-service on one data directory.

    ``start()`` recovers the data dir, spawns the worker pool, and
    binds the HTTP server; ``drain()`` (or the context manager exit)
    shuts it down gracefully.  ``now`` is injectable for tests.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        jobs: int = 1,
        max_queue: int | None = None,
        max_per_client: int | None = None,
        breaker_threshold: int | None = None,
        breaker_cooldown_s: float | None = None,
        cache=None,
        now: Callable[[], float] = time.time,
    ) -> None:
        self.now = now
        self.workers = max(1, workers)
        self.jobs = max(1, jobs)
        self.cache = cache
        self.queue = DurableQueue(data_dir, now=now)
        admission_kwargs = {}
        if max_queue is not None:
            admission_kwargs["max_queue"] = max_queue
        if max_per_client is not None:
            admission_kwargs["max_per_client"] = max_per_client
        self.admission = AdmissionController(**admission_kwargs)
        breaker_kwargs: dict[str, Any] = {}
        if breaker_threshold is not None:
            breaker_kwargs["threshold"] = breaker_threshold
        if breaker_cooldown_s is not None:
            breaker_kwargs["cooldown_s"] = breaker_cooldown_s
        self.breakers = BreakerBoard(**breaker_kwargs)

        self._ready = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []
        self._http_thread: threading.Thread | None = None
        self._server = _ServeHTTPServer((host, port), _ServeHandler)
        self._server.daemon_ref = self
        self.recovery: RecoverySummary | None = None
        self.drain_duration_s: float | None = None
        self._counter_lock = threading.Lock()
        self._counters: dict[tuple[str, str], int] = {}

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ServeDaemon":
        """Recover the data dir, then open for traffic."""
        self.recovery = recover(self.queue)
        for n in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{n}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._http_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http", daemon=True,
        )
        self._http_thread.start()
        self._ready.set()
        return self

    def drain(self, grace_s: float = 30.0) -> int:
        """Stop intake, finish in-flight work, flush, close; exit code.

        Returns 0 when the queue drained completely, 4 when queued or
        in-flight requests remain durably on disk for the next
        incarnation (the established "interrupted; journal saved"
        code).
        """
        began = self.now()
        self._draining.set()
        self.queue.wake_all()
        deadline = time.monotonic() + grace_s
        for t in self._threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        self._server.close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)
        pending = self.queue.depth() + self.queue.inflight()
        self.queue.close()
        self._stopped.set()
        self.drain_duration_s = self.now() - began
        return 0 if pending == 0 else 4

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if not self._stopped.is_set():
            self.drain()

    # -- counters --------------------------------------------------------
    def _count(self, name: str, label: str = "") -> None:
        with self._counter_lock:
            key = (name, label)
            self._counters[key] = self._counters.get(key, 0) + 1

    # -- worker loop -----------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._draining.is_set():
            entry = self.queue.claim(timeout=0.5)
            if entry is None:
                continue
            self._run_one(entry)

    def _run_one(self, entry: QueueEntry) -> None:
        req = entry.request
        if self._draining.is_set():
            # claimed in the race with drain: hand it back durably
            self.queue.requeue(entry)
            return
        began = self.now()

        outcome = execute_request(
            entry,
            data_dir=self.queue.data_dir,
            cache=self.cache,
            jobs=self.jobs,
            now=self.now,
        )
        self.admission.observe_service_time(self.now() - began)
        benchmark = req.benchmark if req.kind != "check" else None
        if outcome.state == "done":
            self.queue.put_result(req.fingerprint, outcome.text or "")
            self.queue.complete(entry, req.fingerprint)
            self.breakers.record_success(benchmark)
            self._count("completed", "done")
        elif outcome.state == "expired":
            self.queue.expire(entry, outcome.error or "deadline expired")
            self._count("completed", "expired")
        else:
            self.queue.fail(entry, outcome.error or "failed")
            self.breakers.record_failure(benchmark)
            self._count("completed", "failed")

    # -- admission -------------------------------------------------------
    def admit(self, request) -> "tuple[Any, dict[str, Any], int]":
        """Admission + submission for one parsed request.

        Returns ``(decision, body, status)``: a rejected decision keeps
        nothing; an admitted one has durably enqueued the request (or
        mapped it onto its duplicate) before returning.
        """
        from repro.serve.admission import AdmissionDecision

        # duplicates ride free: answering from the store costs nothing,
        # so they bypass depth and client caps
        existing = self.queue.by_fingerprint(request.fingerprint)
        if existing is not None and not self._draining.is_set():
            entry, _ = self.queue.submit(request)
            self._count("duplicates")
            body = entry.status_doc()
            body["duplicate"] = True
            return AdmissionDecision.ok(), body, (
                200 if entry.state == "done" else 202
            )
        benchmark = request.benchmark if request.kind != "check" else None
        breaker_open = not self.breakers.allow(benchmark)
        decision = self.admission.decide(
            queue_depth=self.queue.depth(),
            client_load=self.queue.client_load(request.client),
            workers=self.workers,
            draining=self._draining.is_set(),
            breaker_open=breaker_open,
            breaker_retry_s=(
                self.breakers.retry_after_s(benchmark)
                if breaker_open and benchmark is not None else 0.0
            ),
        )
        if not decision.admitted:
            self._count("rejections", decision.reason)
            return decision, {"error": decision.reason}, decision.status
        entry, duplicate = self.queue.submit(request)
        self._count("accepted")
        body = entry.status_doc()
        if duplicate:
            body["duplicate"] = True
        return decision, body, 202

    # -- readiness -------------------------------------------------------
    def readiness(self) -> tuple[bool, str]:
        if not self._ready.is_set():
            return False, "recovering"
        if self._draining.is_set():
            return False, "draining"
        depth = self.queue.depth()
        if depth >= self.admission.high_water:
            return False, f"queue depth {depth} at high water"
        return True, "ready"

    # -- metrics ---------------------------------------------------------
    def samples(self) -> list[Sample]:
        counts = self.queue.counts()
        out = [
            Sample(
                "repro_serve_queue_depth", float(self.queue.depth()),
                help="accepted requests not yet claimed by a worker",
            ),
            Sample(
                "repro_serve_inflight", float(counts["running"]),
                help="requests currently executing", type="gauge",
            ),
            Sample(
                "repro_serve_ready",
                1.0 if self.readiness()[0] else 0.0,
                help="1 when /readyz reports ready",
            ),
            Sample(
                "repro_serve_draining",
                1.0 if self._draining.is_set() else 0.0,
                help="1 after SIGTERM stopped intake",
            ),
            Sample(
                "repro_serve_workers", float(self.workers),
                help="request worker threads",
            ),
        ]
        for state, n in counts.items():
            out.append(Sample(
                "repro_serve_requests", float(n), {"state": state},
                help="known requests by lifecycle state",
            ))
        if self.recovery is not None:
            out.append(Sample(
                "repro_serve_recovered_requests",
                float(self.recovery.requests),
                help="requests rebuilt from disk at startup",
            ))
            out.append(Sample(
                "repro_serve_recovered_releases",
                float(self.recovery.releases),
                help="in-flight requests requeued at startup",
            ))
        with self._counter_lock:
            counters = dict(self._counters)
        helps = {
            "accepted": "requests admitted and durably enqueued",
            "duplicates": "submissions answered from an existing request",
            "rejections": "submissions refused at admission",
            "completed": "requests driven to a terminal state",
        }
        label_key = {"rejections": "reason", "completed": "state"}
        for (name, label), n in sorted(counters.items()):
            labels = (
                {label_key[name]: label}
                if label and name in label_key else {}
            )
            out.append(Sample(
                f"repro_serve_{name}_total", float(n), labels,
                help=helps.get(name, ""), type="counter",
            ))
        for benchmark, state in sorted(self.breakers.states().items()):
            out.append(Sample(
                "repro_serve_breaker_state",
                float(_BREAKER_STATE_VALUE[state]),
                {"benchmark": benchmark},
                help="0 closed, 1 half-open, 2 open",
            ))
        if self.drain_duration_s is not None:
            out.append(Sample(
                "repro_serve_drain_duration_seconds",
                self.drain_duration_s,
                help="wall-clock of the last graceful drain",
            ))
        return out


# ----------------------------------------------------------------------
class _ServeHTTPServer(HardenedHTTPServer):
    daemon_ref: ServeDaemon


class _ServeHandler(HardenedHandler):
    """Route table for the serve API; thin — policy lives in the daemon."""

    server_version = "repro-serve/1"

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.daemon_ref

    # -- helpers ---------------------------------------------------------
    def _send_json(
        self, status: int, body: dict[str, Any],
        *, retry_after_s: int | None = None,
    ) -> None:
        data = (json.dumps(body, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(data)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(retry_after_s))
        self.end_headers()
        self.wfile.write(data)

    def _send_bytes(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "request body too large"})
            return None
        return self.rfile.read(length)

    # -- routes ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        path = self.path.split("?", 1)[0]
        if path != "/v1/jobs":
            self._send_json(404, {"error": f"no route {path}"})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            doc = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            request = parse_request(
                doc,
                client=self.headers.get("X-Client-Id"),
                idempotency_key=self.headers.get("Idempotency-Key"),
            )
        except BadRequest as exc:
            self._send_json(400, {"error": str(exc)})
            return
        decision, out, status = self.daemon.admit(request)
        self._send_json(
            status, out, retry_after_s=decision.retry_after_s,
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self.send_response(204)
            self.end_headers()
        elif path == "/readyz":
            ready, reason = self.daemon.readiness()
            self._send_bytes(
                200 if ready else 503, f"{reason}\n".encode(),
                "text/plain; charset=utf-8",
            )
        elif path == "/metrics":
            from repro.obs.metrics import prometheus_text

            self._send_bytes(
                200, prometheus_text(self.daemon.samples()).encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path.startswith("/v1/jobs/"):
            self._get_job(path[len("/v1/jobs/"):], query)
        elif path.startswith("/v1/results/"):
            self._get_result(path[len("/v1/results/"):])
        else:
            self._send_json(404, {"error": f"no route {path}"})

    def _get_job(self, request_id: str, query: str) -> None:
        entry = self.daemon.queue.get(request_id)
        if entry is None:
            self._send_json(404, {"error": f"no request {request_id}"})
            return
        if "watch=1" in query.split("&"):
            self._watch_job(entry)
            return
        self._send_json(200, entry.status_doc())

    def _watch_job(self, entry: QueueEntry) -> None:
        """Stream NDJSON progress until the request goes terminal."""
        self.send_response(200)
        self.send_header("Content-Type", _NDJSON)
        self.end_headers()
        try:
            for line in _progress_lines(entry, self.daemon):
                self.wfile.write(line)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close_connection = True

    def _get_result(self, fingerprint: str) -> None:
        data = self.daemon.queue.get_result(fingerprint)
        if data is not None:
            self._send_bytes(200, data, _JSON)
            return
        entry = self.daemon.queue.by_fingerprint(fingerprint)
        if entry is None:
            self._send_json(404, {"error": f"no result {fingerprint}"})
        elif entry.state == "expired":
            self._send_json(
                504, {"error": entry.error or "deadline expired",
                      "id": entry.id, "state": entry.state},
            )
        elif entry.state == "failed":
            self._send_json(
                500, {"error": entry.error or "request failed",
                      "id": entry.id, "state": entry.state},
            )
        else:
            self._send_json(
                409,
                {"error": "not finished", "id": entry.id,
                 "state": entry.state},
                retry_after_s=self.daemon.admission.retry_after_s(
                    self.daemon.queue.depth(), self.daemon.workers
                ),
            )


def _progress_lines(entry: QueueEntry, daemon: ServeDaemon) -> Iterator[bytes]:
    """Status line, a ``progress`` line whenever the request's run
    directory counts differently, terminal status line."""
    from repro.resilience.fleet import fleet_status

    def dump(obj: dict[str, Any]) -> bytes:
        return (json.dumps(obj, separators=(",", ":")) + "\n").encode()

    yield dump(entry.status_doc())
    run_dir = request_run_dir(daemon.queue.data_dir, entry.id)
    sent = None
    while True:
        with entry.cond:
            if not entry.terminal:
                if daemon._draining.is_set():
                    return
                entry.cond.wait(_WATCH_POLL_S)
        # the state is read before the run directory, so a terminal
        # request's last progress line counts its finished run
        terminal = entry.terminal
        if run_dir.is_dir():
            status = fleet_status(run_dir)
            progress = {key: status[key] for key in _PROGRESS_KEYS}
            # a run still starting has no manifest yet and reads 0 jobs
            if progress["jobs_total"] and progress != sent:
                yield dump({"progress": progress})
                sent = progress
        if terminal:
            yield dump(entry.status_doc())
            return
