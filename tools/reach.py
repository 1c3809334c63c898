#!/usr/bin/env python3
"""Which functions under ``src/repro`` does no documented command call?

    python tools/reach.py                 # the per-module table
    python tools/reach.py --json REACH.json   # + every function, by name

Runs every documented invocation — each step of
``tools/cli_goldens.py::CASES`` plus every ``trace``/``slo``/``openloop``
scenario — in this process, in a scratch directory, under
``sys.setprofile``, and notes each code object that is ever entered.
Every ``def`` in ``src/repro`` (methods and nested functions included)
whose code object never was is reported with its line count, outermost
only: a function nested in an uncalled one is not counted twice.

This is the deletion audit's *input*, measured: it gates nothing and
deletes nothing.  A function listed here may still be reached by
tier-1 tests, ``hostbench/``, ``examples/`` or a ``--flag`` no golden
exercises — grep before deleting.  Worker pools are not followed:
every command runs with one worker, which executes the same functions.

Exit status: 0; 2 if an invocation raised (its traceback is printed).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Any, Dict, Iterator, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(REPO, "tools"))

import cli_goldens  # noqa: E402  (tools/cli_goldens.py: the pinned cases)


def invocations() -> List[str]:
    """Every documented ``python -m repro …`` argument string, once."""
    from repro.scenarios import SCENARIOS
    steps = [step for case in cli_goldens.CASES for step in case.steps]
    steps += [f"{command} {scenario}" for command in ("trace", "slo",
                                                      "openloop")
              for scenario in SCENARIOS[command]]
    return list(dict.fromkeys(steps))


def entered(steps: List[str]) -> Tuple[Set[Tuple[str, str, int]], List[str]]:
    """Run ``steps`` under the profiler; returns the entered code
    objects as ``(file, name, first line)`` and what raised."""
    from repro.cli import main
    seen: Set[Any] = set()

    def note(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    crashed: List[str] = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for step in steps:
                sink = io.StringIO()
                sys.setprofile(note)
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        main(step.split())
                except SystemExit:
                    pass
                except Exception as exc:  # keep auditing the rest
                    crashed.append(f"repro {step}: {exc!r}")
                finally:
                    sys.setprofile(None)
        finally:
            os.chdir(home)
    return {(code.co_filename, code.co_name, code.co_firstlineno)
            for code in seen}, crashed


def uncalled(path: str, seen: Set[Tuple[str, str, int]]
             ) -> Iterator[Tuple[str, int, int]]:
    """``(qualified name, first line, last line)`` of every outermost
    function in ``path`` that was never entered."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its decorator.
                lines = {child.lineno, *(d.lineno for d in
                                         child.decorator_list)}
                if any((path, child.name, line) in seen for line in lines):
                    yield from walk(child, f"{prefix}{child.name}.")
                else:
                    yield (prefix + child.name, min(lines),
                           child.end_lineno or child.lineno)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def audit() -> Dict[str, Any]:
    steps = invocations()
    seen, crashed = entered(steps)
    modules: Dict[str, Any] = {}
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            functions = [{"name": name, "line": first,
                          "lines": last - first + 1}
                         for name, first, last in uncalled(path, seen)]
            if functions:
                modules[os.path.relpath(path, SRC)] = {
                    "lines": sum(f["lines"] for f in functions),
                    "functions": functions,
                }
    return {
        "schema": "repro-reach/1",
        "invocations": steps,
        "crashed": crashed,
        "uncalled_functions": sum(len(m["functions"])
                                  for m in modules.values()),
        "uncalled_lines": sum(m["lines"] for m in modules.values()),
        "modules": dict(sorted(modules.items(),
                               key=lambda item: (-item[1]["lines"],
                                                 item[0]))),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report (every uncalled "
                             "function by name) to PATH")
    args = parser.parse_args(argv)
    report = audit()
    for name, module in report["modules"].items():
        print(f"{module['lines']:6d}  {len(module['functions']):3d}  {name}")
    print(f"reach: {report['uncalled_functions']} functions / "
          f"{report['uncalled_lines']} lines in {len(report['modules'])} "
          f"modules never entered by {len(report['invocations'])} "
          f"invocations")
    for problem in report["crashed"]:
        print(f"crashed: {problem}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 2 if report["crashed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
