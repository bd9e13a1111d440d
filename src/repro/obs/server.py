"""Stdlib HTTP endpoint serving the metrics exposition during a run.

``MetricsServer`` wraps :class:`http.server.ThreadingHTTPServer` on a
daemon thread: ``--metrics-port`` starts it before the sweep and stops
it after, so a scraper (Prometheus, ``curl``, the CI ``obs-smoke``
job) can hit ``GET /metrics`` while jobs are still in flight.  The
handler calls a *snapshot function* per request — for a CLI run that
is :func:`repro.obs.metrics.run_samples` over a read-only
``fleet_status`` scan of the run directory, the run's telemetry and its
cache counters, so serving a scrape never mutates the run and cannot
perturb its byte-identical merge.

Routes::

    GET /metrics   text exposition (version 0.0.4)
    GET /healthz   204 while the run is alive

Port 0 binds an ephemeral port; read the resolved one from ``.port``
(printed by the CLI as ``metrics: serving on :<port>``).  Serving is
built on the hardened stdlib base of :mod:`repro.common.httpd` —
``SO_REUSEADDR`` (restarts never hit ``EADDRINUSE``), bounded request
lines and headers, per-connection read timeouts — shared with the
full ``repro serve`` daemon of :mod:`repro.serve`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.common.httpd import HardenedHandler, HardenedHTTPServer
from repro.obs.metrics import Sample, prometheus_text

__all__ = ["MetricsServer"]

_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(HardenedHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            try:
                body = prometheus_text(self.server.snapshot()).encode()
            except Exception as exc:  # noqa: BLE001 - never kill the run
                self.send_error(500, explain=f"snapshot failed: {exc}")
                return
            self.send_response(200)
            self.send_header("Content-Type", _CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/healthz":
            self.send_response(204)
            self.end_headers()
        else:
            self.send_error(404)


class _Server(HardenedHTTPServer):
    snapshot: Callable[[], Iterable[Sample]]


class MetricsServer:
    """Serve ``snapshot()`` as ``GET /metrics`` on a daemon thread.

    Context-manager friendly::

        with MetricsServer(lambda: samples, port=0) as srv:
            print(srv.port)
            ... run the sweep ...
    """

    def __init__(
        self,
        snapshot: Callable[[], Iterable[Sample]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._server = _Server((host, port), _Handler)
        self._server.snapshot = snapshot
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=5)
        self._server.server_close()
        self._thread = None

    def close(self) -> None:
        """Close the socket even if ``start`` was never called."""
        if self._thread is not None:
            self.stop()
        else:
            self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
