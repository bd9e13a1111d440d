"""A served request renders the same bytes as the command line."""

from repro.__main__ import main
from repro.serve.executor import execute_request
from repro.serve.queue import QueueEntry
from repro.serve.request import parse_request


def test_served_profile_matches_cli_json(capsys, tmp_path):
    cli_json = tmp_path / "cli.json"
    assert main([
        "profile", "MemAlign", "-p", "n=65536", "--json", str(cli_json),
    ]) == 0
    capsys.readouterr()
    request = parse_request({
        "kind": "profile", "benchmark": "MemAlign", "params": {"n": 65536},
    })
    outcome = execute_request(
        QueueEntry("p1", 0, request), data_dir=tmp_path / "serve"
    )
    assert outcome.state == "done", outcome.error
    assert outcome.text == cli_json.read_text()


def test_run_finishing_past_its_deadline_expires(tmp_path, monkeypatch):
    # a served run on a worker thread cannot be interrupted in-process,
    # so the deadline is checked again once the run returns
    import threading
    import time

    import repro.sched.runner as runner

    execute = runner.execute_job

    def slow(spec):
        time.sleep(0.4)
        return execute(spec)

    monkeypatch.setattr(runner, "execute_job", slow)
    request = parse_request({
        "kind": "run", "benchmark": "MemAlign", "params": {"n": 16384},
        "deadline_ms": 200,
    })
    entry = QueueEntry("r1", 0, request)
    entry.submitted_at = time.time()
    outcomes = []
    worker = threading.Thread(target=lambda: outcomes.append(
        execute_request(entry, data_dir=tmp_path / "serve")
    ))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert outcomes[0].state == "expired", outcomes[0]
    assert "deadline of 200ms" in outcomes[0].error
