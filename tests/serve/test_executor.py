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
