"""Percentiles, spreads and the comparison rules.

Quartiles use :func:`statistics.quantiles` with its default method, so
a spread printed here is the one an outside check computes from the
same values.  Tail percentiles interpolate between the closest ranks
(``method="inclusive"``), so they never leave the sampled range.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99); the median for 50."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside 1..99")
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, float(statistics.median(values)), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def _sign(better: str) -> float:
    """+1 where lower is better, -1 where higher is."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    return 1.0 if better == "lower" else -1.0


def pair_wins(
    a: dict[int, float], b: dict[int, float], *, better: str
) -> tuple[int, int]:
    """(pairs b won, pairs): runs of the two sides with the same seed.

    When the two sides were run alternately, each pair ran close
    together in time, so a drift in host speed cancels within it; ties
    count for neither side.
    """
    sign = _sign(better)
    seeds = a.keys() & b.keys()
    return sum(1 for s in seeds if sign * (b[s] - a[s]) < 0), len(seeds)


def verdict(
    a: Sequence[float], b: Sequence[float], *, better: str, bound: float
) -> tuple[str, float]:
    """Judge side ``b`` against side ``a`` for one metric.

    Returns ``(verdict, worse_by)`` where ``worse_by`` is how much
    worse b's median is than a's, as a share of a's median (negative
    when b is better).  When either side's spread exceeds ``bound`` the
    medians cannot be trusted to that precision: the verdict is
    ``unresolved`` unless every run of b beats every run of a.
    """
    sign = _sign(better)
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        beats_all = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if beats_all else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by
