"""Full-process lifecycle: boot, SIGKILL mid-job, recover, byte-identity.

These tests drive ``python -m repro serve`` as a real subprocess — the
same shape as the CI ``serve-smoke`` job — because kill -9 durability
cannot be faked in-process.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.fleet import scan_completed
from repro.serve.client import ServeClient

#: large MemAlign sizes run long enough (~0.5s/value) that a SIGKILL
#: lands mid-sweep deterministically
VALUES = "262144,524288,262145"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(port: int, cwd: Path) -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--data-dir", "data",
            "--workers", "1", "--cache-dir", "cache",
        ],
        cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_ready(client: ServeClient, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if client.ready():
                return
        except OSError:
            pass
        time.sleep(0.1)
    raise AssertionError("daemon never became ready")


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_kill9_recover_byte_identical_drain(workdir):
    port = free_port()
    client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=30.0)

    proc = spawn(port, workdir)
    try:
        wait_ready(client)
        sub = client.submit({
            "kind": "sweep", "benchmark": "MemAlign",
            "values": [int(v) for v in VALUES.split(",")],
        })
        request_id = sub["id"]

        # let the request's run directory checkpoint at least one job
        # (a completion line: its log also holds the header and health
        # events), then murder the daemon mid-sweep
        run_dir = workdir / "data" / "journals" / f"{request_id}.fleet"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if scan_completed(run_dir):
                break
            time.sleep(0.1)
        else:
            raise AssertionError("journal never checkpointed")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

        # restart over the same data dir: recovery must requeue the
        # in-flight request and finish it
        proc = spawn(port, workdir)
        wait_ready(client)
        status = client.wait(request_id, timeout_s=120)
        assert status["state"] == "done"
        assert status["attempts"] == 2
        served = client.result(status["fingerprint"])

        # byte-identical to the serial CLI writing the same sweep
        out = workdir / "cli.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", "MemAlign",
                "--values", VALUES, "--out", str(out),
            ],
            cwd=workdir,
            env=dict(
                os.environ,
                PYTHONPATH=str(
                    Path(__file__).resolve().parents[2] / "src"
                ),
            ),
            check=True, capture_output=True,
        )
        assert served == out.read_bytes()

        # metrics surface the recovery
        samples = {
            line.split(" ")[0]: line.split(" ")[-1]
            for line in client.metrics().splitlines()
            if line and not line.startswith("#")
        }
        assert float(samples["repro_serve_recovered_requests"]) >= 1.0
        assert float(samples["repro_serve_recovered_releases"]) >= 1.0

        # graceful drain: SIGTERM, nothing pending, exit 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_sigterm_with_queued_work_exits_four(workdir):
    port = free_port()
    client = ServeClient(f"http://127.0.0.1:{port}", timeout_s=30.0)
    proc = spawn(port, workdir)
    try:
        wait_ready(client)
        # a long sweep the single worker will still be running, plus a
        # queued one behind it
        first = client.submit({
            "kind": "sweep", "benchmark": "MemAlign",
            "values": [524288, 262144, 524289],
        })
        client.submit({
            "kind": "sweep", "benchmark": "MemAlign", "values": [4096],
        })
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.status(first["id"])["state"] == "running":
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 4  # interrupted; journal saved

        # everything survives for the next incarnation
        states = [
            json.loads(path.read_text())["state"]
            for path in (workdir / "data" / "requests").glob("*.json")
        ]
        assert sorted(states) in (["done", "queued"], ["queued", "queued"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
