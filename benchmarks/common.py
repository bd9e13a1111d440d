"""Shared helpers for the figure/table regeneration harness.

Each ``bench_*.py`` regenerates one table or figure of the paper: it
runs the corresponding microbenchmark sweep, prints the same rows or
series the paper reports (visible with ``pytest -s`` and persisted
under ``benchmarks/results/``), and registers a representative run with
pytest-benchmark so ``pytest benchmarks/ --benchmark-only`` also tracks
the harness's own wall-clock cost.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

__all__ = ["emit", "RESULTS_DIR", "REPO_ROOT", "one_shot", "scheduler_jobs"]


def scheduler_jobs(default: int = 1) -> int:
    """Worker-pool width for the harness (``REPRO_BENCH_JOBS`` env).

    Lets CI regenerate figures through the :mod:`repro.sched` pool
    without editing every ``bench_*.py``; results are byte-identical to
    the serial run, so the default stays 1.
    """
    try:
        return max(int(os.environ.get("REPRO_BENCH_JOBS", default)), 1)
    except ValueError:
        return default


def emit(
    tag: str,
    *blocks: str,
    data: dict[str, Any] | None = None,
    root_name: str | None = None,
) -> str:
    """Print and persist a figure/table reproduction block.

    ``data`` additionally writes a machine-readable document through the
    :mod:`repro.prof.metrics` exporter to ``results/<tag>.json`` (and,
    when ``root_name`` is given, to that filename at the repo root),
    so figure/table numbers are diffable without re-parsing text.
    """
    text = "\n\n".join(str(b).rstrip() for b in blocks if str(b).strip())
    banner = f"\n{'=' * 74}\n{tag}\n{'=' * 74}\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{tag}.txt").write_text(text + "\n")
    if data is not None:
        from repro.exec import current_backend_name
        from repro.prof.metrics import write_metrics

        # provenance stamp; results themselves are backend-invariant.
        # A document comparing backends names them itself.
        data = {**data, "backend": data.get("backend", current_backend_name())}
        write_metrics(RESULTS_DIR / f"{tag}.json", data)
        if root_name is not None:
            write_metrics(REPO_ROOT / root_name, data)
    return text


def one_shot(benchmark, fn):
    """Register ``fn`` with pytest-benchmark for a single timed round.

    The simulations are deterministic, so repeated rounds only measure
    interpreter noise; one round keeps the harness fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
