"""The command line's option surface, pinned against a committed golden.

``cli_surface.json`` holds every parser's actions, keyed by command path
(``""`` for the top level, ``"journal show"`` for a subcommand): option
strings, dest, default, const, choices, nargs, metavar, help, required,
type name and action class.  Actions are compared, not ``--help`` text,
because argparse formats help differently on Python 3.10 and 3.11+;
their order is ignored.  A positional's ``required`` is left out: it
follows from ``nargs``, by a rule argparse has changed across versions.

After an intended change to the surface, regenerate the golden with::

    PYTHONPATH=src python -m tests.test_cli_surface > tests/cli_surface.json
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


def surface(
    parser: argparse.ArgumentParser, path: str = ""
) -> dict[str, list[dict]]:
    """Every parser's actions by command path, in a canonical order."""
    out: dict[str, list[dict]] = {}
    actions = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                out.update(surface(sub, f"{path} {name}".strip()))
        elif choices is not None:
            choices = list(choices)
        actions.append({
            "action": type(action).__name__,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "const": action.const,
            "choices": choices,
            "nargs": action.nargs,
            "metavar": action.metavar,
            "help": action.help,
            "required": action.required if action.option_strings else None,
            "type": getattr(action.type, "__name__", None),
        })
    out[path] = sorted(actions, key=lambda a: json.dumps(a, sort_keys=True))
    return out


GOLDEN_SURFACE = json.loads(GOLDEN.read_text())


def test_every_parser_is_pinned():
    assert sorted(surface(build_parser())) == sorted(GOLDEN_SURFACE)


@pytest.mark.parametrize("path", sorted(GOLDEN_SURFACE))
def test_parser_actions_match_golden(path):
    assert surface(build_parser())[path] == GOLDEN_SURFACE[path]


if __name__ == "__main__":
    print(json.dumps(surface(build_parser()), indent=1, sort_keys=True))
