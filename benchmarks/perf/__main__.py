"""``python -m benchmarks.perf``: the same entry point as ``run.py``."""

from benchmarks.perf.run import cli

raise SystemExit(cli())
