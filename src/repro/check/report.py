"""Conformance report: the typed outcome stream of ``repro check``.

Every check the engine performs — a paper claim, a physical invariant,
a metamorphic relation, a structural validation — produces one
:class:`CheckOutcome`.  A :class:`ConformanceReport` collects them,
renders the pass/fail summary the CLI prints, and serializes to the
``repro-conformance/1`` JSON document the CI job archives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.common.durable import make_dirs
from repro.common.tables import render_table

__all__ = ["CONFORMANCE_SCHEMA", "CheckOutcome", "ConformanceReport"]

CONFORMANCE_SCHEMA = "repro-conformance/1"

#: outcome kinds, in the order the summary groups them
KINDS = ("claim", "invariant", "relation", "structure")


@dataclass(frozen=True)
class CheckOutcome:
    """One evaluated check.

    ``subject`` names what was checked (a benchmark, a kernel as
    ``benchmark/kernel``, a relation subject, a document path);
    ``name`` is the claim kind / invariant / relation identifier; and
    ``detail`` is the pointed observed-vs-expected message shown for
    failures.
    """

    kind: str
    subject: str
    name: str
    passed: bool
    detail: str = ""
    backend: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckOutcome":
        """Rebuild an outcome from its :meth:`as_dict` form.

        The run journal checkpoints completed ``repro check`` units as
        outcome lists; ``--resume`` replays them through here.
        """
        return cls(
            kind=data["kind"],
            subject=data["subject"],
            name=data["name"],
            passed=bool(data["passed"]),
            detail=data.get("detail", ""),
            backend=data.get("backend", ""),
        )

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        where = f"{self.subject}" + (f" [{self.backend}]" if self.backend else "")
        msg = f" — {self.detail}" if self.detail else ""
        return f"{mark} {self.kind} {where}: {self.name}{msg}"


@dataclass
class ConformanceReport:
    """Every outcome of one ``repro check`` invocation."""

    title: str = "conformance"
    outcomes: list[CheckOutcome] = field(default_factory=list)

    def add(self, outcome: CheckOutcome) -> None:
        self.outcomes.append(outcome)

    def extend(self, outcomes: Iterable[CheckOutcome]) -> None:
        self.outcomes.extend(outcomes)

    # ------------------------------------------------------------------
    @property
    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_subject(self) -> dict[str, list[CheckOutcome]]:
        groups: dict[str, list[CheckOutcome]] = {}
        for o in self.outcomes:
            groups.setdefault(o.subject.split("/")[0], []).append(o)
        return groups

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        counts = {k: 0 for k in KINDS}
        failed = {k: 0 for k in KINDS}
        for o in self.outcomes:
            counts[o.kind] += 1
            if not o.passed:
                failed[o.kind] += 1
        return {
            "schema": CONFORMANCE_SCHEMA,
            "title": self.title,
            "ok": self.ok,
            "total": len(self.outcomes),
            "failed": len(self.failures),
            "by_kind": {
                k: {"total": counts[k], "failed": failed[k]}
                for k in KINDS
                if counts[k]
            },
            "outcomes": [o.as_dict() for o in self.outcomes],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        make_dirs(path.parent)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    # ------------------------------------------------------------------
    def render(self) -> str:
        rows = []
        for subject, outs in sorted(self.by_subject().items()):
            per_kind = []
            for kind in KINDS:
                ks = [o for o in outs if o.kind == kind]
                if not ks:
                    continue
                bad = sum(1 for o in ks if not o.passed)
                per_kind.append(
                    f"{len(ks) - bad}/{len(ks)} {kind}s"
                    + (f" ({bad} FAILED)" if bad else "")
                )
            verdict = "ok" if all(o.passed for o in outs) else "FAIL"
            rows.append([subject, ", ".join(per_kind), verdict])
        lines = [render_table(["subject", "checks", "verdict"], rows,
                              title=self.title)]
        if self.failures:
            lines.append("")
            lines.append(f"{len(self.failures)} failing check(s):")
            for o in self.failures:
                lines.append(f"  {o}")
        lines.append("")
        n = len(self.outcomes)
        lines.append(
            f"conformance: OK ({n} checks)"
            if self.ok
            else f"conformance: {len(self.failures)} of {n} checks FAILED"
        )
        return "\n".join(lines)
