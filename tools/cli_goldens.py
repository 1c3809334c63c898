#!/usr/bin/env python3
"""Byte pins and the reproducibility gate for ``python -m repro``.

Every case below is one or more ``python -m repro …`` invocations run
as subprocesses in a scratch directory.  Each case runs twice — once
under ``PYTHONHASHSEED=0`` with one worker, once under
``PYTHONHASHSEED=1`` with ``--workers 2`` where the command has the
flag — and the two runs must agree byte for byte: stdout (apart from
the worker count ``chaos`` echoes), exit codes and every artifact.
The sha256 of those bytes is pinned in
``tests/fixtures/cli_goldens.json``.

``tests/test_cli.py`` runs the cases marked ``gate`` (a few seconds) as
tier-1; the rest — full grids, ``repro all`` — are checked here::

    python tools/cli_goldens.py            # check every case
    python tools/cli_goldens.py --write    # re-pin after a deliberate
                                           # change to simulated output

Exit status: 0 all pins hold, 1 a case drifted or is not reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(REPO, "tests", "fixtures", "cli_goldens.json")

#: ``chaos`` prints how many workers ran; nothing else may differ.
_WORKERS_ECHO = re.compile(rb", \d+ workers?\)")


class Case(NamedTuple):
    """One pinned invocation sequence (the steps share a directory)."""
    name: str
    #: ``{REPO}`` in a step is the repository root (steps run elsewhere);
    #: the pin's label keeps the placeholder, so it holds in any checkout
    steps: Tuple[str, ...]
    artifacts: Tuple[str, ...] = ()
    #: the last step takes ``--workers``
    workers: bool = False
    #: cheap enough for tier-1
    gate: bool = False


CASES: List[Case] = [
    # -- tier-1: every report-writing command, small sizes
    Case("chaos-kvstore-25", ("chaos kvstore --max-cells 25",),
         ("CHAOS_kvstore.json",), workers=True, gate=True),
    Case("chaos-kvstore-distributed-25",
         ("chaos kvstore-distributed --max-cells 25",),
         ("CHAOS_kvstore-distributed.json",), workers=True, gate=True),
    Case("fleet-canary", ("fleet canary-kvstore",),
         ("FLEET_kvstore.json",), gate=True),
    Case("fleet-canary-distributed", ("fleet canary-kvstore --distributed",),
         ("FLEET_kvstore.json",), gate=True),
    Case("slo-fig7-quick", ("slo fig7 --quick",), ("SLO_fig7.json",),
         workers=True, gate=True),
    Case("slo-table1-quick", ("slo table1 --quick",), ("SLO_table1.json",),
         workers=True, gate=True),
    Case("slo-canary-kvstore-quick", ("slo canary-kvstore --quick",),
         ("SLO_canary-kvstore.json",), workers=True, gate=True),
    Case("openloop-kvstore-quick", ("openloop kvstore --quick",),
         ("OPENLOOP_kvstore.json",), workers=True, gate=True),
    Case("openloop-redis-quick", ("openloop redis --quick",),
         ("OPENLOOP_redis.json",), workers=True, gate=True),
    Case("trace-companions-quick",
         ("trace fig7 --quick", "trace table1 --quick",
          "trace table2 --quick", "trace faults --quick"),
         ("TRACE_fig7.jsonl", "TRACE_table1.jsonl", "TRACE_table2.jsonl",
          "TRACE_faults.jsonl"), gate=True),
    Case("openloop-kvstore-quick-slo", ("openloop kvstore --quick --slo",),
         ("OPENLOOP_kvstore.json",), workers=True, gate=True),
    Case("trace-replay",
         ("trace fig6 --quick --check --record STREAM.jsonl",
          "replay STREAM.jsonl --out REPLAY.json",
          "replay STREAM.jsonl --json"),
         ("TRACE_fig6.jsonl", "STREAM.jsonl", "REPLAY.json"), gate=True),
    Case("prove-kvstore", ("prove kvstore",), ("PROOF_kvstore.json",),
         gate=True),
    Case("perf", ("perf --json",), ("BENCH_perf.json",), gate=True),
    # the paths no other case enters: every ``--check``/``--validate``
    # verdict line and the span-schema gate in front of ``lint --spans``
    Case("validate-paths",
         ("trace fig6 --quick --record STREAM.jsonl",
          "replay STREAM.jsonl --validate",
          "slo fig7 --quick --check --spans SPANS.jsonl",
          "lint --spans SPANS.jsonl",
          "openloop kvstore --quick --check"),
         ("STREAM.jsonl", "SPANS.jsonl"), workers=True, gate=True),
    # -- the rest of the documented surface, full sizes
    Case("all", ("all",)),
    *(Case(name, (name,)) for name in
      ("table1", "table2", "fig6", "fig7", "faults", "ablations",
       "cluster", "experiments", "claims")),
    Case("experiment-trace", ("fig7 --trace TRACE.jsonl",),
         ("TRACE.jsonl",)),
    Case("lint", ("lint", "lint --json", "lint --format sarif"), gate=True),
    # every analyzer's findings and the exit status on a failing catalog
    Case("lint-fixtures",
         ("lint --catalog {REPO}/tests/fixtures/bad_catalog.py --json",
          "lint --catalog {REPO}/tests/fixtures/bad_catalog.py "
          "--format sarif",
          "lint --catalog {REPO}/tests/fixtures/bad_workloads.py --json",
          "lint --catalog {REPO}/tests/fixtures/gap_catalog.py --json",
          "lint --app kvstore --prove --json"), gate=True),
    Case("chaos-kvstore", ("chaos kvstore",), ("CHAOS_kvstore.json",),
         workers=True),
    Case("chaos-kvstore-distributed", ("chaos kvstore-distributed",),
         ("CHAOS_kvstore-distributed.json",), workers=True),
    Case("fleet-canary-slo", ("fleet canary-kvstore --slo",),
         ("FLEET_kvstore.json",)),
    Case("fleet-canary-distributed-slo",
         ("fleet canary-kvstore --distributed --slo",),
         ("FLEET_kvstore.json",)),
    Case("slo-fig7", ("slo fig7",), ("SLO_fig7.json",), workers=True),
    Case("openloop-kvstore", ("openloop kvstore",),
         ("OPENLOOP_kvstore.json",), workers=True),
]


def run_case(case: Case, *, varied: bool) -> Dict[str, bytes]:
    """Run the case's steps in a fresh directory; returns what it
    observed, ``{label: bytes}`` — one entry per step (stdout plus the
    exit code) and one per artifact."""
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "1" if varied else "0"
    observed: Dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as cwd:
        for index, step in enumerate(case.steps):
            argv = step.replace("{REPO}", REPO).split()
            if varied and case.workers and index == len(case.steps) - 1:
                argv += ["--workers", "2"]
            done = subprocess.run([sys.executable, "-m", "repro"] + argv,
                                  cwd=cwd, env=env, capture_output=True,
                                  timeout=600)
            stdout = _WORKERS_ECHO.sub(b", N workers)", done.stdout)
            observed[f"$ repro {step}"] = (
                stdout + f"[exit {done.returncode}]\n".encode())
        for name in case.artifacts:
            with open(os.path.join(cwd, name), "rb") as handle:
                observed[name] = handle.read()
    return observed


def digests(observed: Dict[str, bytes]) -> Dict[str, str]:
    return {label: hashlib.sha256(data).hexdigest()
            for label, data in observed.items()}


def check_case(case: Case, pinned: Dict[str, str]) -> List[str]:
    """Problems with one case: not reproducible, or drifted from pins."""
    base = run_case(case, varied=False)
    varied = run_case(case, varied=True)
    problems = [f"{case.name}: {label} differs between PYTHONHASHSEED=0 "
                f"and PYTHONHASHSEED=1"
                + (" --workers 2" if case.workers else "")
                for label in base if base[label] != varied.get(label)]
    actual = digests(base)
    problems += [f"{case.name}: {label} no longer matches its pin"
                 for label in sorted(set(actual) | set(pinned))
                 if actual.get(label) != pinned.get(label)]
    return problems


def load_goldens() -> Dict[str, Dict[str, str]]:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: List[str]) -> int:
    if argv == ["--write"]:
        goldens = {case.name: digests(run_case(case, varied=False))
                   for case in CASES}
        with open(GOLDENS, "w", encoding="utf-8") as handle:
            json.dump(goldens, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"pinned {len(goldens)} case(s) in {GOLDENS}")
        return 0
    if argv:
        print(__doc__)
        return 2
    goldens = load_goldens()
    problems: List[str] = []
    for case in CASES:
        found = check_case(case, goldens.get(case.name, {}))
        print(f"{'FAIL' if found else 'ok  '} {case.name}")
        problems += found
    for problem in problems:
        print(problem)
    print(f"cli goldens: {len(problems)} problem(s) across "
          f"{len(CASES)} case(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
