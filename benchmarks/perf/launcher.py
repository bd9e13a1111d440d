"""Child-process entry point: run one ``repro`` command, optionally traced.

Usage::

    python3 benchmarks/perf/launcher.py [--parse-only] [--sizes FILE]
        [--spans FILE] -- <repro arguments>

The benchmark starts every program process through this file, so that
traced and untraced runs execute the same code apart from the span
wrappers.  The launcher imports ``repro.__main__`` from the checkout's
``src/`` and then:

* ``--parse-only`` parses the arguments and exits (the set-up probe:
  interpreter start, imports, parser construction);
* ``--sizes`` binds the CLI's ``run_suite`` to the per-benchmark
  parameters in FILE, so ``table1`` regenerates Table I at the
  benchmark's problem sizes through the unchanged command path;
* ``--spans`` installs the layer wrappers of :mod:`spans` and writes the
  spans to FILE as a Chrome trace when the command returns, with the
  per-span cost of the wrappers, measured in this process before the
  command runs, under ``otherData.wrapper_ns``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="launcher.py")
    p.add_argument("--parse-only", action="store_true")
    p.add_argument("--sizes")
    p.add_argument("--spans")
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro
    import repro.__main__ as cli

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"launcher: repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    if args.parse_only:
        cli.build_parser().parse_args(command)
        return 0
    if args.sizes:
        sizes = json.loads(Path(args.sizes).read_text())
        cli.run_suite = functools.partial(cli.run_suite, overrides=sizes)
    if not args.spans:
        return cli.main(command)

    from benchmarks.perf.spans import (
        TARGETS, Instrumenter, SpanRecorder, wrapper_cost_ns,
    )

    # the price of a span is measured before the command, so that the
    # program's state cannot affect it
    cost = wrapper_cost_ns()
    recorder = SpanRecorder()
    with Instrumenter(recorder, TARGETS):
        code = cli.main(command)
    trace = recorder.chrome_trace()
    trace["otherData"] = {"wrapper_ns": cost}
    Path(args.spans).write_text(json.dumps(trace, separators=(",", ":")))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
