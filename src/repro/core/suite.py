"""Suite runner: regenerate the paper's Table I.

Runs all fourteen microbenchmarks with their default (scaled)
parameters on their default systems and renders a summary table with
the measured speedup beside the paper's reported figure.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any

from repro.arch.spec import SystemSpec
from repro.common.tables import render_table
from repro.core.base import CATEGORIES, BenchResult
from repro.core.registry import ALL_BENCHMARKS

__all__ = ["SuiteReport", "run_suite", "table1"]


@dataclass
class SuiteReport:
    """Results of a full suite run."""

    results: list[BenchResult] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.results)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready projection for the metrics exporters."""
        return {
            "schema": "repro-prof-bench/1",
            "all_verified": self.all_verified,
            "results": [r.as_dict() for r in self.results],
        }

    def render(self) -> str:
        rows = []
        by_name = {r.benchmark: r for r in self.results}
        for cls in ALL_BENCHMARKS:
            r = by_name.get(cls.name)
            measured = f"{r.speedup:.2f}x" if r else "-"
            verified = ("yes" if r.verified else "NO") if r else "-"
            rows.append(
                [cls.name, CATEGORIES[cls.category].split()[0].lower(),
                 cls.paper_speedup, measured, verified,
                 str(cls.programmability)]
            )
        return render_table(
            ["benchmark", "guideline", "paper speedup", "measured", "verified", "prog."],
            rows,
            title="Table I: CUDAMicroBench summary (simulated)",
        )


def run_suite(
    overrides: dict[str, dict[str, Any]] | None = None,
    system: SystemSpec | None = None,
) -> SuiteReport:
    """Run every microbenchmark; ``overrides[name]`` supplies run kwargs.

    ``system=None`` keeps each benchmark's paper-faithful default
    (Carina/V100 for most, Fornax/K80 for ReadOnlyMem, RTX 3080 for
    DynParallel and GSOverlap).

    A runtime and its streams and launch closures refer to each other,
    so the device buffers of a finished row are freed only by the cyclic
    collector.  Collecting after every row frees them before the next
    row allocates; left to the collector's own schedule, the suite's
    peak memory would depend on how many objects the caller allocated
    before the first row.
    """
    overrides = overrides or {}
    report = SuiteReport()
    for cls in ALL_BENCHMARKS:
        bench = cls(system)
        kwargs = overrides.get(cls.name, {})
        report.results.append(bench.run(**kwargs))
        gc.collect()
    return report


def table1(**kwargs: Any) -> str:
    """Convenience: run the suite and render Table I."""
    return run_suite(**kwargs).render()
