"""One reader: only ``repro.resilience.fleet`` opens a run directory's parts.

The engine writes a run directory's manifest, worker logs (the
journals), quarantine markers, flight dumps and leases, and its
readers are the only code that reads them back.  The
tools around it — ``repro.obs``, the journal module and the CLI — go
through those readers and never join a part's name onto a path, so
every tool counts a run's progress the same way.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the names the engine lays out under ``<run-id>.fleet/``
RUN_DIR_PARTS = {
    "manifest.json", "journals", "quarantine", "flightrec", "leases",
}

#: modules that must read a run directory through the engine's readers
TOOLS = [
    *sorted((SRC / "obs").glob("*.py")),
    SRC / "resilience" / "journal.py",
    SRC / "__main__.py",
]


def _names_a_part(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        first = node.value.split("/", 1)[0]
        if first in RUN_DIR_PARTS:
            return first
    return None


def path_joins(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, part)`` of every run-directory part joined onto a path:
    ``d / "journals"``, ``Path(d, "leases")``, ``d.joinpath(...)``,
    ``os.path.join(...)`` and ``d.glob("journals/*")``."""
    found = []
    for node in ast.walk(tree):
        operands: list[ast.AST] = []
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name in ("Path", "PurePath", "joinpath", "join", "glob", "rglob"):
                operands = list(node.args)
        for operand in operands:
            part = _names_a_part(operand)
            if part is not None:
                found.append((node.lineno, part))
    return found


def test_tools_read_run_directories_through_the_engine():
    stray = [
        f"{path.relative_to(SRC).as_posix()}:{line}: {part!r}"
        for path in TOOLS
        for line, part in path_joins(ast.parse(path.read_text()))
    ]
    assert stray == [], (
        "read run directories through repro.resilience.fleet:\n"
        + "\n".join(stray)
    )


def test_scanner_sees_every_way_of_joining():
    code = "\n".join([
        'run_dir / "manifest.json"',
        'Path(run_dir, "leases")',
        'run_dir.joinpath("quarantine")',
        'os.path.join(run_dir, "flightrec")',
        'run_dir.glob("journals/*.ndjson")',
        '(run_dir / "journals").glob("*.ndjson")',
        'Path(run_dir) / "quarantine" / "fp0.json"',
        '{"leases": 0}',            # a dict key is not a path
        'f(name="journals")',       # nor is an unrelated argument
    ])
    assert sorted(path_joins(ast.parse(code))) == [
        (1, "manifest.json"), (2, "leases"), (3, "quarantine"),
        (4, "flightrec"), (5, "journals"), (6, "journals"), (7, "quarantine"),
    ]


def test_the_engine_itself_is_scanned_as_a_writer():
    # the one module allowed to join the names does join every one
    tree = ast.parse((SRC / "resilience" / "fleet.py").read_text())
    assert {part for _, part in path_joins(tree)} == RUN_DIR_PARTS
