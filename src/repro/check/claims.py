"""Declarative paper-claim specifications (``benchmarks/claims/*.toml``).

EXPERIMENTS.md asserts *relative* agreement with the paper — who wins,
by roughly what factor, where a crossover falls.  A claim file encodes
those assertions per benchmark so ``repro check`` can re-verify them on
every change.  The format (schema ``repro-claims/1``)::

    schema = "repro-claims/1"
    benchmark = "CoMem"
    source = "Table I / Fig. 9"

    [run]                 # parameters of the checked comparison run
    n = 4194304

    [[claims]]
    kind = "speedup"      # BenchResult.speedup within [min, max]
    min = 8.0
    max = 25.0
    paper = "18 (average)"

    [[claims]]
    kind = "verified"     # optimized kernel matches the naive output

    [[claims]]
    kind = "metric"       # result.metrics[key] within [min, max]
    key = "cyclic_transactions_per_request"
    max = 1.05

    [[claims]]
    kind = "metric_ratio" # metrics[numerator] / metrics[denominator]
    numerator = "block_transactions_per_request"
    denominator = "cyclic_transactions_per_request"
    min = 8.0

    [[claims]]
    kind = "sweep_monotonic"   # speedup trend over a figure sweep
    values = [524288, 1048576, 4194304]
    baseline = "BLOCK"         # series names in the SweepResult
    optimized = "CYCLIC"
    direction = "increasing"   # or "decreasing" / "flat"
    tolerance = 0.02

    [[claims]]
    kind = "sweep_crossover"   # speedup crosses `threshold` within the sweep
    values = [512, 1024]
    baseline = "escape time"
    optimized = "Mariani-Silver (dyn. parallelism)"
    threshold = 1.0
    slow = true                # skipped under `repro check --quick`

Result-level claims (``speedup`` / ``verified`` / ``metric`` /
``metric_ratio``) can also be evaluated offline against the rows of a
saved ``repro-prof-bench/1`` document — that is how
``repro prof diff --claims`` turns a claim file into regression
thresholds and how ``repro check --doc`` audits committed baselines.
"""

from __future__ import annotations

import math

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib is 3.11+
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.common.errors import ReproError
from repro.check.report import CheckOutcome

__all__ = [
    "CLAIMS_SCHEMA",
    "DEFAULT_CLAIMS_DIR",
    "Claim",
    "ClaimSpec",
    "load_claim_file",
    "load_claims_dir",
    "load_claims",
    "parse_claims",
    "evaluate_result_claim",
    "evaluate_sweep_claim",
    "evaluate_claims_on_document",
]

CLAIMS_SCHEMA = "repro-claims/1"
DEFAULT_CLAIMS_DIR = Path("benchmarks/claims")

#: claim kinds evaluated on one BenchResult row
RESULT_KINDS = ("speedup", "verified", "metric", "metric_ratio")
#: claim kinds that need a figure sweep
SWEEP_KINDS = ("sweep_monotonic", "sweep_crossover")
DIRECTIONS = ("increasing", "decreasing", "flat")


def _fmt_range(lo: float | None, hi: float | None) -> str:
    if lo is not None and hi is not None:
        return f"[{lo:g}, {hi:g}]"
    if lo is not None:
        return f">= {lo:g}"
    if hi is not None:
        return f"<= {hi:g}"
    return "(unbounded)"


@dataclass(frozen=True)
class Claim:
    """One executable assertion from a claim file."""

    kind: str
    min: float | None = None
    max: float | None = None
    key: str = ""
    numerator: str = ""
    denominator: str = ""
    values: tuple[Any, ...] = ()
    baseline: str = ""
    optimized: str = ""
    direction: str = "increasing"
    threshold: float = 1.0
    tolerance: float = 0.0
    paper: str = ""
    note: str = ""
    slow: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        if self.kind == "metric":
            return f"metric:{self.key}"
        if self.kind == "metric_ratio":
            return f"ratio:{self.numerator}/{self.denominator}"
        if self.kind in SWEEP_KINDS:
            return f"{self.kind}:{self.direction}" if (
                self.kind == "sweep_monotonic"
            ) else f"{self.kind}@{self.threshold:g}"
        return self.kind


@dataclass(frozen=True)
class ClaimSpec:
    """All claims for one benchmark, plus the run they apply to."""

    benchmark: str
    source: str = ""
    run_params: Mapping[str, Any] = field(default_factory=dict)
    system: str | None = None
    claims: tuple[Claim, ...] = ()
    path: str = ""

    def result_claims(self, *, quick: bool = False) -> list[Claim]:
        return [
            c for c in self.claims
            if c.kind in RESULT_KINDS and not (quick and c.slow)
        ]

    def sweep_claims(self, *, quick: bool = False) -> list[Claim]:
        return [
            c for c in self.claims
            if c.kind in SWEEP_KINDS and not (quick and c.slow)
        ]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def _parse_claim(raw: Mapping[str, Any], where: str) -> Claim:
    kind = raw.get("kind")
    if kind not in RESULT_KINDS + SWEEP_KINDS:
        raise ReproError(
            f"{where}: unknown claim kind {kind!r}; expected one of "
            f"{', '.join(RESULT_KINDS + SWEEP_KINDS)}"
        )
    known = {
        "kind", "min", "max", "key", "numerator", "denominator", "values",
        "baseline", "optimized", "direction", "threshold", "tolerance",
        "paper", "note", "slow", "params",
    }
    unknown = set(raw) - known
    if unknown:
        raise ReproError(f"{where}: unknown claim field(s) {sorted(unknown)}")
    if kind == "metric" and not raw.get("key"):
        raise ReproError(f"{where}: metric claim needs a 'key'")
    if kind == "metric_ratio" and not (
        raw.get("numerator") and raw.get("denominator")
    ):
        raise ReproError(
            f"{where}: metric_ratio claim needs 'numerator' and 'denominator'"
        )
    if kind in ("speedup", "metric", "metric_ratio") and (
        raw.get("min") is None and raw.get("max") is None
    ):
        raise ReproError(f"{where}: {kind} claim needs 'min' and/or 'max'")
    if kind in SWEEP_KINDS and not raw.get("values"):
        raise ReproError(f"{where}: {kind} claim needs sweep 'values'")
    direction = raw.get("direction", "increasing")
    if direction not in DIRECTIONS:
        raise ReproError(
            f"{where}: direction {direction!r} not in {DIRECTIONS}"
        )
    return Claim(
        kind=kind,
        min=None if raw.get("min") is None else float(raw["min"]),
        max=None if raw.get("max") is None else float(raw["max"]),
        key=str(raw.get("key", "")),
        numerator=str(raw.get("numerator", "")),
        denominator=str(raw.get("denominator", "")),
        values=tuple(raw.get("values", ())),
        baseline=str(raw.get("baseline", "")),
        optimized=str(raw.get("optimized", "")),
        direction=direction,
        threshold=float(raw.get("threshold", 1.0)),
        tolerance=float(raw.get("tolerance", 0.0)),
        paper=str(raw.get("paper", "")),
        note=str(raw.get("note", "")),
        slow=bool(raw.get("slow", False)),
        params=dict(raw.get("params", {})),
    )


def load_claim_file(path: str | Path) -> ClaimSpec:
    """Read one TOML claim file and parse it into a :class:`ClaimSpec`."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ReproError(f"claim file not found: {path}") from None
    return parse_claims(text, path=str(path))


def parse_claims(text: str, *, path: str = "") -> ClaimSpec:
    """Parse the text of one claim file; ``path`` names it in errors."""
    if tomllib is None:
        raise ReproError(
            "claim files need a TOML parser: Python 3.11+ (stdlib tomllib) "
            "or the tomli package"
        )
    try:
        raw = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ReproError(f"{path} is not valid TOML: {exc}") from None
    if raw.get("schema") != CLAIMS_SCHEMA:
        raise ReproError(
            f"{path}: schema {raw.get('schema')!r} is not {CLAIMS_SCHEMA!r}"
        )
    benchmark = raw.get("benchmark")
    if not benchmark or not isinstance(benchmark, str):
        raise ReproError(f"{path}: missing 'benchmark' name")
    claims_raw = raw.get("claims", [])
    if not claims_raw:
        raise ReproError(f"{path}: no [[claims]] entries")
    claims = tuple(
        _parse_claim(c, f"{path} claims[{i}]") for i, c in enumerate(claims_raw)
    )
    return ClaimSpec(
        benchmark=benchmark,
        source=str(raw.get("source", "")),
        run_params=dict(raw.get("run", {})),
        system=raw.get("system"),
        claims=claims,
        path=path,
    )


def load_claims_dir(claims_dir: str | Path | None = None) -> dict[str, ClaimSpec]:
    """Load every ``*.toml`` claim file of a directory, keyed by benchmark."""
    root = Path(claims_dir) if claims_dir else DEFAULT_CLAIMS_DIR
    if not root.is_dir():
        raise ReproError(f"claims directory not found: {root}")
    specs: dict[str, ClaimSpec] = {}
    for path in sorted(root.glob("*.toml")):
        spec = load_claim_file(path)
        if spec.benchmark in specs:
            raise ReproError(
                f"{path}: duplicate claims for {spec.benchmark!r} "
                f"(also in {specs[spec.benchmark].path})"
            )
        specs[spec.benchmark] = spec
    if not specs:
        raise ReproError(f"no claim files (*.toml) under {root}")
    return specs


def load_claims(path: str | Path) -> list[ClaimSpec]:
    """Load a claim file or every claim file of a directory."""
    p = Path(path)
    if p.is_dir():
        return list(load_claims_dir(p).values())
    return [load_claim_file(p)]


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _in_range(value: float, lo: float | None, hi: float | None) -> bool:
    if not math.isfinite(value):
        return False
    if lo is not None and value < lo:
        return False
    if hi is not None and value > hi:
        return False
    return True


def evaluate_result_claim(
    claim: Claim, result: Mapping[str, Any], *, benchmark: str, backend: str = ""
) -> CheckOutcome:
    """Evaluate one result-level claim against a ``BenchResult`` row.

    ``result`` is the dict shape of :meth:`BenchResult.as_dict` (the
    same rows a ``repro-prof-bench/1`` document stores).
    """
    paper = f" (paper: {claim.paper})" if claim.paper else ""

    def outcome(passed: bool, detail: str) -> CheckOutcome:
        return CheckOutcome(
            kind="claim",
            subject=benchmark,
            name=claim.label,
            passed=passed,
            detail=detail + paper,
            backend=backend,
        )

    if claim.kind == "verified":
        ok = bool(result.get("verified"))
        return outcome(
            ok,
            "optimized output matches naive"
            if ok
            else "optimized and naive kernels DISAGREE "
            f"({result.get('optimized_name', 'optimized')} vs "
            f"{result.get('baseline_name', 'baseline')})",
        )
    if claim.kind == "speedup":
        value = float(result.get("speedup", float("nan")))
        ok = _in_range(value, claim.min, claim.max)
        return outcome(
            ok,
            f"speedup {value:.3g} vs expected "
            f"{_fmt_range(claim.min, claim.max)}",
        )
    metrics = result.get("metrics", {})
    if claim.kind == "metric":
        if claim.key not in metrics:
            return outcome(
                False, f"metric {claim.key!r} missing from result"
            )
        value = float(metrics[claim.key])
        ok = _in_range(value, claim.min, claim.max)
        return outcome(
            ok,
            f"{claim.key} = {value:.4g} vs expected "
            f"{_fmt_range(claim.min, claim.max)}",
        )
    if claim.kind == "metric_ratio":
        for k in (claim.numerator, claim.denominator):
            if k not in metrics:
                return outcome(False, f"metric {k!r} missing from result")
        den = float(metrics[claim.denominator])
        value = float(metrics[claim.numerator]) / den if den else float("inf")
        ok = _in_range(value, claim.min, claim.max)
        return outcome(
            ok,
            f"{claim.numerator}/{claim.denominator} = {value:.4g} vs "
            f"expected {_fmt_range(claim.min, claim.max)}",
        )
    raise ReproError(f"{claim.kind!r} is not a result-level claim")


def _speedup_series(
    claim: Claim, sweep: Mapping[str, Any]
) -> tuple[list[float], list[Any]]:
    series = sweep.get("series", {})
    xs = list(sweep.get("x_values", []))
    names = list(series)
    baseline = claim.baseline or (names[0] if names else "")
    optimized = claim.optimized or (names[1] if len(names) > 1 else "")
    for name in (baseline, optimized):
        if name not in series:
            raise ReproError(
                f"sweep claim references series {name!r}; sweep has "
                f"{names}"
            )
    speedups = [
        b / o if o else float("inf")
        for b, o in zip(series[baseline], series[optimized])
    ]
    return speedups, xs


def evaluate_sweep_claim(
    claim: Claim, sweep: Mapping[str, Any], *, benchmark: str, backend: str = ""
) -> CheckOutcome:
    """Evaluate a trend claim against a sweep (``SweepResult.as_dict``)."""
    paper = f" (paper: {claim.paper})" if claim.paper else ""

    def outcome(passed: bool, detail: str) -> CheckOutcome:
        return CheckOutcome(
            kind="claim",
            subject=benchmark,
            name=claim.label,
            passed=passed,
            detail=detail + paper,
            backend=backend,
        )

    try:
        speedups, xs = _speedup_series(claim, sweep)
    except ReproError as exc:
        return outcome(False, str(exc))
    shown = ", ".join(f"{x}:{s:.3g}" for x, s in zip(xs, speedups))

    if claim.kind == "sweep_monotonic":
        tol = claim.tolerance
        pairs = list(zip(speedups, speedups[1:]))
        if claim.direction == "increasing":
            ok = all(b >= a * (1.0 - tol) for a, b in pairs)
        elif claim.direction == "decreasing":
            ok = all(b <= a * (1.0 + tol) for a, b in pairs)
        else:  # flat
            lo, hi = min(speedups), max(speedups)
            ok = lo > 0 and (hi - lo) / hi <= tol
        return outcome(
            ok,
            f"speedup over {sweep.get('x_name', 'x')} expected "
            f"{claim.direction} (tol {tol:g}): {shown}",
        )

    if claim.kind == "sweep_crossover":
        th = claim.threshold
        below = [x for x, s in zip(xs, speedups) if s < th]
        above = [x for x, s in zip(xs, speedups) if s >= th]
        ok = (
            bool(below)
            and bool(above)
            and speedups[0] < th <= speedups[-1]
        )
        return outcome(
            ok,
            f"speedup crosses {th:g} within the sweep "
            f"(below at {below or 'none'}, at/above at {above or 'none'}): "
            f"{shown}",
        )
    raise ReproError(f"{claim.kind!r} is not a sweep claim")


def evaluate_claims_on_document(
    specs: Iterable[ClaimSpec],
    doc: Mapping[str, Any],
    *,
    quick: bool = False,
) -> list[CheckOutcome]:
    """Evaluate result-level claims against a saved bench document.

    Benchmarks without a row in ``doc`` are skipped (a sweep document
    or a partial suite simply has nothing to check); so are rows whose
    recorded run parameters conflict with the claim file's ``[run]``
    table (a claim is only meaningful at the problem size it encodes);
    sweep claims are skipped too — they need live runs.  Used by
    ``repro check --doc`` and by ``repro prof diff --claims``.
    """
    rows = {
        str(r.get("benchmark")): r
        for r in doc.get("results", [])
        if isinstance(r, dict)
    }
    outcomes: list[CheckOutcome] = []
    for spec in specs:
        row = rows.get(spec.benchmark)
        if row is None:
            continue
        recorded = row.get("params", {})
        if any(
            k in recorded and recorded[k] != v
            for k, v in spec.run_params.items()
        ):
            continue
        for claim in spec.result_claims(quick=quick):
            outcomes.append(
                evaluate_result_claim(claim, row, benchmark=spec.benchmark)
            )
    return outcomes
