"""ServeDaemon over real HTTP, plus direct admission/drain decisions."""

import http.client
import json
import threading

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.serve.client import ServeClient, ServeRejected
from repro.serve.request import parse_request
from repro.serve.server import ServeDaemon


def sweep_doc(**over):
    doc = {"kind": "sweep", "benchmark": "MemAlign", "values": [4096]}
    doc.update(over)
    return doc


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    d = ServeDaemon(
        tmp_path_factory.mktemp("serve-data"), port=0, workers=1
    )
    with d:
        yield d


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url, timeout_s=60.0)


class TestEndpoints:
    def test_health_and_ready(self, client):
        assert client.healthy()
        assert client.ready()

    def test_submit_wait_result(self, client):
        sub = client.submit(sweep_doc())
        assert sub["state"] in ("queued", "running", "done")
        status = client.wait(sub["id"], timeout_s=120)
        assert status["state"] == "done"
        data = client.result(status["fingerprint"])
        doc = json.loads(data)
        assert doc["schema"] == "repro-prof-bench/1"
        assert doc["benchmark"] == "MemAlign"
        assert doc["sweep"]["x_values"] == [4096]

    def test_duplicate_returns_200_with_same_id(self, client):
        first = client.submit(sweep_doc())
        client.wait(first["id"], timeout_s=120)
        again = client.submit(sweep_doc())
        assert again["duplicate"] is True
        assert again["id"] == first["id"]
        assert again["state"] == "done"

    def test_user_idempotency_key_wins(self, client):
        a = client.submit(sweep_doc(), idempotency_key="pin-1")
        b = client.submit(
            sweep_doc(values=[8192]), idempotency_key="pin-1"
        )
        assert b["id"] == a["id"]
        assert a["fingerprint"] == "user-pin-1"

    def test_invalid_json_is_400(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        conn.request(
            "POST", "/v1/jobs", body=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 400
        assert b"invalid JSON" in resp.read()
        conn.close()

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServeRejected) as exc:
            client.submit({"kind": "explode"})
        assert exc.value.status == 400
        assert "unknown kind" in exc.value.body["error"]

    def test_unknown_routes_are_404(self, client):
        with pytest.raises(ServeRejected) as exc:
            client._json("GET", "/v2/everything", ok=(200,))
        assert exc.value.status == 404
        with pytest.raises(ServeRejected) as exc:
            client._json("POST", "/v1/other", body=b"{}", ok=(200,))
        assert exc.value.status == 404

    def test_unknown_job_and_result_are_404(self, client):
        with pytest.raises(ServeRejected) as exc:
            client.status("req-does-not-exist")
        assert exc.value.status == 404
        with pytest.raises(ServeRejected) as exc:
            client.result("0" * 64)
        assert exc.value.status == 404

    def test_oversized_body_is_413(self, daemon):
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10)
        conn.request(
            "POST", "/v1/jobs", body=b"",
            headers={"Content-Length": str(2 << 20)},
        )
        resp = conn.getresponse()
        assert resp.status == 413
        conn.close()

    def test_metrics_parse_strictly(self, client):
        samples = parse_prometheus_text(client.metrics())
        names = {s.name for s in samples}
        for required in (
            "repro_serve_queue_depth",
            "repro_serve_inflight",
            "repro_serve_ready",
            "repro_serve_draining",
            "repro_serve_workers",
            "repro_serve_requests",
            "repro_serve_accepted_total",
            "repro_serve_completed_total",
        ):
            assert required in names

    def test_watch_streams_to_terminal(self, client, daemon):
        sub = client.submit(sweep_doc(values=[8192]))
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=120
        )
        conn.request("GET", f"/v1/jobs/{sub['id']}?watch=1")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in resp.read().splitlines()]
        conn.close()
        assert lines[0]["id"] == sub["id"]
        assert lines[-1]["state"] == "done"
        assert lines[-2]["progress"] == {
            "jobs_total": 1, "jobs_completed": 1,
            "jobs_remaining": 0, "quarantined": 0,
        }

    def test_watch_streams_progress_while_the_run_works(
        self, tmp_path, monkeypatch
    ):
        import repro.sched.runner as runner

        execute = runner.execute_job
        first_seen = threading.Event()
        calls = []

        def gated(spec):
            # hold the second point until a watcher saw the first one
            # done; bounded, so a stream without progress fails the test
            calls.append(spec)
            if len(calls) == 2:
                first_seen.wait(timeout=10)
            return execute(spec)

        monkeypatch.setattr(runner, "execute_job", gated)
        with ServeDaemon(tmp_path / "data", port=0, workers=1) as daemon:
            sub = ServeClient(daemon.url).submit(
                sweep_doc(values=[4096, 8192, 16384])
            )
            conn = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=120
            )
            conn.request("GET", f"/v1/jobs/{sub['id']}?watch=1")
            lines = []
            for raw in conn.getresponse():
                lines.append(json.loads(raw))
                progress = lines[-1].get("progress", {})
                if progress.get("jobs_completed") == 1:
                    first_seen.set()
            conn.close()
        progress = [line["progress"] for line in lines if "progress" in line]
        assert first_seen.is_set()
        assert any(
            0 < p["jobs_completed"] < p["jobs_total"] for p in progress
        )
        assert progress[-1]["jobs_completed"] == progress[-1]["jobs_total"] == 3
        assert lines[0]["id"] == sub["id"]
        assert lines[-1]["state"] == "done"
        assert all("progress" in line for line in lines[1:-1])

    def test_unfinished_result_is_409_with_retry_after(self, tmp_path):
        # HTTP only, no workers: the queued request stays queued
        daemon = ServeDaemon(tmp_path / "data", port=0, workers=1)
        http_thread = threading.Thread(
            target=daemon._server.serve_forever, daemon=True
        )
        http_thread.start()
        try:
            request = parse_request(sweep_doc())
            daemon.queue.submit(request)
            client = ServeClient(daemon.url)
            with pytest.raises(ServeRejected) as exc:
                client.result(request.fingerprint)
            assert exc.value.status == 409
            assert exc.value.body["state"] == "queued"
            assert exc.value.retry_after_s >= 1
        finally:
            daemon._server.close()
            http_thread.join(timeout=5)
            daemon.queue.close()


class TestAdmitDirect:
    """Rejection paths exercised deterministically, no workers racing."""

    def make(self, tmp_path, **kw):
        return ServeDaemon(tmp_path / "data", port=0, workers=1, **kw)

    def test_queue_full_is_429(self, tmp_path):
        daemon = self.make(tmp_path, max_queue=1)
        daemon.queue.submit(parse_request(sweep_doc()))
        decision, body, status = daemon.admit(
            parse_request(sweep_doc(values=[1024]))
        )
        assert status == 429
        assert body["error"] == "queue-full"
        assert decision.retry_after_s >= 1
        daemon.queue.close()
        daemon._server.close()

    def test_client_cap_is_429(self, tmp_path):
        daemon = self.make(tmp_path, max_per_client=1)
        daemon.queue.submit(
            parse_request(sweep_doc(), client="alice")
        )
        _, body, status = daemon.admit(
            parse_request(sweep_doc(values=[1024]), client="alice")
        )
        assert status == 429
        assert body["error"] == "client-cap"
        # a different client is unaffected
        _, _, status = daemon.admit(
            parse_request(sweep_doc(values=[2048]), client="bob")
        )
        assert status == 202
        daemon.queue.close()
        daemon._server.close()

    def test_draining_is_503(self, tmp_path):
        daemon = self.make(tmp_path)
        daemon._draining.set()
        _, body, status = daemon.admit(parse_request(sweep_doc()))
        assert status == 503
        assert body["error"] == "draining"
        daemon.queue.close()
        daemon._server.close()

    def test_open_breaker_is_503_but_check_bypasses(self, tmp_path):
        daemon = self.make(tmp_path, breaker_threshold=1)
        daemon.breakers.record_failure("MemAlign")
        decision, body, status = daemon.admit(parse_request(sweep_doc()))
        assert status == 503
        assert body["error"] == "breaker-open"
        assert decision.retry_after_s is not None
        # check requests carry no benchmark: never breaker-gated
        _, _, status = daemon.admit(parse_request({"kind": "check"}))
        assert status == 202
        daemon.queue.close()
        daemon._server.close()

    def test_duplicate_bypasses_full_queue(self, tmp_path):
        daemon = self.make(tmp_path, max_queue=1)
        daemon.queue.submit(parse_request(sweep_doc()))
        _, body, status = daemon.admit(parse_request(sweep_doc()))
        assert status == 202
        assert body["duplicate"] is True
        daemon.queue.close()
        daemon._server.close()


class TestDrain:
    def test_empty_drain_exits_zero(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "data", port=0, workers=1)
        daemon.start()
        assert daemon.drain(grace_s=10.0) == 0
        assert daemon.drain_duration_s is not None

    def test_pending_work_drains_to_exit_four(self, tmp_path):
        # never started: the queued request cannot be picked up, so it
        # remains durable and drain reports "journal saved"
        daemon = ServeDaemon(tmp_path / "data", port=0, workers=1)
        daemon.queue.submit(parse_request(sweep_doc()))
        assert daemon.drain(grace_s=1.0) == 4

    def test_readiness_reasons(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "data", port=0, workers=1)
        assert daemon.readiness() == (False, "recovering")
        daemon._ready.set()
        assert daemon.readiness() == (True, "ready")
        daemon._draining.set()
        assert daemon.readiness()[1] == "draining"
        daemon.queue.close()
        daemon._server.close()

    def test_high_water_blocks_readiness(self, tmp_path):
        daemon = ServeDaemon(
            tmp_path / "data", port=0, workers=1, max_queue=2
        )
        daemon._ready.set()
        daemon.queue.submit(parse_request(sweep_doc()))
        ready, reason = daemon.readiness()
        assert not ready
        assert "high water" in reason
        daemon.queue.close()
        daemon._server.close()
