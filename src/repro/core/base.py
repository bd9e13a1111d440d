"""The microbenchmark framework (the paper's Table I rows).

Every CUDAMicroBench entry pairs a *naive* kernel exhibiting one
performance pathology with an *optimized* kernel applying the fix.  A
:class:`Microbenchmark` subclass implements both, verifies that they
compute the same answer, and reports a :class:`BenchResult` with the
simulated times; :meth:`Microbenchmark.sweep` regenerates the paper
figure's series.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.arch.presets import CARINA
from repro.arch.spec import SystemSpec
from repro.common.tables import render_series

__all__ = ["BenchResult", "SweepResult", "Microbenchmark"]

#: The paper's three guidelines (section III, IV, V).
CATEGORIES = {
    "parallelism": "Optimizing kernels to saturate the massive parallel capability",
    "gpu-memory": "Effectively leveraging the deep memory hierarchy inside GPU",
    "data-movement": "Properly arranging data movement between CPU and GPU",
}


@dataclass
class BenchResult:
    """Outcome of one naive-vs-optimized comparison."""

    benchmark: str
    system: str
    baseline_name: str
    optimized_name: str
    baseline_time: float
    optimized_time: float
    verified: bool            #: both versions produced the same answer
    params: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    @property
    def speedup(self) -> float:
        if self.optimized_time <= 0:
            return float("inf")
        return self.baseline_time / self.optimized_time

    def __str__(self) -> str:
        mark = "ok" if self.verified else "MISMATCH"
        return (
            f"{self.benchmark} on {self.system}: {self.baseline_name} "
            f"{self.baseline_time:.3e}s vs {self.optimized_name} "
            f"{self.optimized_time:.3e}s -> {self.speedup:.2f}x [{mark}]"
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready projection for the metrics exporters."""
        return {
            "benchmark": self.benchmark,
            "system": self.system,
            "baseline_name": self.baseline_name,
            "optimized_name": self.optimized_name,
            "baseline_time_s": self.baseline_time,
            "optimized_time_s": self.optimized_time,
            "speedup": self.speedup,
            "verified": self.verified,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "BenchResult":
        """Inverse of :meth:`as_dict` (cache replay); exact round-trip —
        ``speedup`` is recomputed from the same floats.

        Times are validated: a cached or hand-edited document with NaN
        or negative times would silently poison every downstream
        speedup, so it is rejected here at the trust boundary.
        """
        from repro.common.errors import ReproError

        times = {}
        for key in ("baseline_time_s", "optimized_time_s"):
            try:
                value = float(d[key])
            except (KeyError, TypeError, ValueError):
                raise ReproError(
                    f"BenchResult document for {d.get('benchmark')!r} has "
                    f"non-numeric {key}: {d.get(key)!r}"
                ) from None
            if not math.isfinite(value) or value < 0.0:
                raise ReproError(
                    f"BenchResult document for {d.get('benchmark')!r} has "
                    f"invalid {key} = {value!r} (must be finite and >= 0)"
                )
            times[key] = value
        return cls(
            benchmark=d["benchmark"],
            system=d["system"],
            baseline_name=d["baseline_name"],
            optimized_name=d["optimized_name"],
            baseline_time=times["baseline_time_s"],
            optimized_time=times["optimized_time_s"],
            verified=d["verified"],
            params=dict(d.get("params", {})),
            metrics=dict(d.get("metrics", {})),
        )


@dataclass
class SweepResult:
    """A figure: one x-axis, several named time series."""

    benchmark: str
    system: str
    x_name: str
    x_values: list[Any]
    series: dict[str, list[float]]
    title: str = ""

    def speedups(self, baseline: str, optimized: str) -> list[float]:
        b = self.series[baseline]
        o = self.series[optimized]
        return [bi / oi if oi else float("inf") for bi, oi in zip(b, o)]

    def render(self) -> str:
        return render_series(
            self.x_name,
            self.x_values,
            self.series,
            title=self.title or f"{self.benchmark} on {self.system}",
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready projection for the metrics exporters."""
        return {
            "benchmark": self.benchmark,
            "system": self.system,
            "x_name": self.x_name,
            "x_values": list(self.x_values),
            "series": {k: list(v) for k, v in self.series.items()},
        }


class Microbenchmark(abc.ABC):
    """Base class for the fourteen CUDAMicroBench entries.

    The first class attributes mirror the columns of the paper's Table
    I.  The rest declare the benchmark's figure as data: a figure is one
    :meth:`run` per x-value, the x-value set as the ``sweep_param``
    keyword, and each series reads one number from every point's
    result.  :meth:`sweep` builds it in-process;
    :func:`repro.sched.parallel_sweep` runs the same points as ordinary
    ``run`` jobs and rebuilds it with :meth:`sweep_result`.
    """

    #: short name, as in Table I (e.g. "CoMem")
    name: str = "?"
    #: one of :data:`CATEGORIES`
    category: str = "?"
    #: "Pattern of Performance Inefficiency" column
    pattern: str = ""
    #: "Optimization techniques" column
    technique: str = ""
    #: "Speedup" column, as printed in the paper
    paper_speedup: str = ""
    #: "Programmability" column (1 easy .. 5 hard)
    programmability: int = 0
    #: default system the paper measured this benchmark on
    default_system: SystemSpec = CARINA
    #: the figure's title
    figure: str = ""
    #: the :meth:`run` keyword the figure's x-axis sets, and its label
    sweep_param: str = "n"
    x_name: str = "n"
    #: the figure's default x-values
    sweep_values: tuple[Any, ...] = ()
    #: ``(label, source)`` per series; ``source`` is ``"baseline"``,
    #: ``"optimized"`` or a key of the result's ``metrics``
    series: tuple[tuple[str, str], ...] = ()

    def __init__(self, system: SystemSpec | None = None) -> None:
        self.system = system or self.default_system

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, **params: Any) -> BenchResult:
        """Run the default comparison and return the result."""

    def sweep(self, values: Sequence[Any] | None = None, **params: Any) -> SweepResult:
        """Regenerate the paper figure: one :meth:`run` per x-value
        (``values``, else the figure's defaults), each with ``params``."""
        points = self.sweep_points(values, params)
        return self.sweep_result(points, [self.run(**p) for p in points])

    def sweep_points(
        self, values: Sequence[Any] | None, params: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """The :meth:`run` parameters of each figure point, in x order."""
        return [{**params, self.sweep_param: x} for x in values or self.sweep_values]

    def sweep_result(
        self, points: Sequence[dict[str, Any]], results: Sequence[BenchResult]
    ) -> SweepResult:
        """The figure from each point's :meth:`run` result, in point order."""

        def read(result: BenchResult, source: str) -> float:
            if source in ("baseline", "optimized"):
                return getattr(result, f"{source}_time")
            return result.metrics[source]

        return SweepResult(
            benchmark=self.name,
            system=self.system.name,
            x_name=self.x_name,
            x_values=[p[self.sweep_param] for p in points],
            series={
                label: [read(r, source) for r in results]
                for label, source in self.series
            },
            title=self.figure,
        )

    # ------------------------------------------------------------------
    @classmethod
    def table1_row(cls) -> list[str]:
        return [
            cls.name,
            cls.pattern,
            cls.technique,
            cls.paper_speedup,
            str(cls.programmability),
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(system={self.system.name!r})"
