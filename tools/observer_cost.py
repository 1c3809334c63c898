#!/usr/bin/env python3
"""What the repo's own observer costs when it is *present*.

    python tools/observer_cost.py [--smoke] [--seed 1]

Two hostbench workloads that construct no tracer — the common case
(``steady-single-leader``) and the full MVE lifecycle
(``update-rule-heavy``) — each run three ways: with no tracer installed
("absent", what ``hostbench/run.py`` measures), with a plain
``Tracer()``, and with ``Tracer(spans=True)``.  Per cell, printed: ops
per reference-speed host second, how many times slower than "absent",
peak RSS, and trace events per op.

A cell *is* a hostbench round — ``hostbench/child.py``'s ``run_round``
builds the workload from ``hostbench/workloads.py`` and times its slices
against the calibration kernel — run inside
``repro.sites.observing(tracer=...)``, in one fresh subprocess (this
script with ``--cell``) under ``run.py``'s child environment, so no
cell inherits another's heap.

This is a record, not a gate: one round per cell, no verdict, exit 1
only when a cell crashed or failed its functional check.  A host-time
*claim* still goes through ``tools/ab_hostbench.py``.  ``--smoke``
divides ops by hostbench's smoke divisor (CI: the machinery works).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "hostbench"))

import child  # noqa: E402  (hostbench/child.py: one timed round)
import run  # noqa: E402  (hostbench/run.py: the child environment)
import workloads  # noqa: E402  (imports nothing from repro until built)

#: Requests per cell.  ``steady-single-leader`` runs half a hostbench
#: round: an eager tracer on the full one needs the better part of a GiB.
OPS = {"steady-single-leader": 60_000, "update-rule-heavy": 32_000}
MODES = ("absent", "tracer", "tracer+spans")


def run_cell(name: str, mode: str, seed: int, ops: int) -> Dict[str, Any]:
    """One untraced hostbench round of ``name`` in this process, under
    one observer mode."""
    sys.path.insert(0, child.SRC)
    from repro.sites import observing
    tracer = None
    if mode != "absent":
        from repro.obs.trace import Tracer
        tracer = Tracer(spans=(mode == "tracer+spans"))
    with observing(tracer=tracer):
        record = child.run_round(name, seed, ops, False, time.perf_counter())
    return {
        "ops_per_ref_s": record["attempted"] / record["ref_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "events_per_op":
            tracer.event_count / record["attempted"] if tracer else 0.0,
        "failed": record["failed"],
    }


def spawn_cell(name: str, mode: str, seed: int, ops: int) -> Dict[str, Any]:
    """One cell in a fresh subprocess; raises RuntimeError on a crash."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cell", name, mode,
         "--seed", str(seed), "--ops", str(ops)],
        env=dict(os.environ, **run.CHILD_ENV), cwd=REPO, text=True,
        capture_output=True, timeout=run.CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name} [{mode}] exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cell", nargs=2, metavar=("WORKLOAD", "MODE"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(*args.cell, args.seed, args.ops)))
        return 0

    failures: List[str] = []
    print(f"{'workload':<22} {'observer':<13} {'ops':>7} {'ops/ref s':>10} "
          f"{'slowdown':>9} {'peak MiB':>9} {'events/op':>10}")
    for name, ops in OPS.items():
        if args.smoke:
            ops //= workloads.SMOKE_DIVISOR
        absent = None
        for mode in MODES:
            try:
                cell = spawn_cell(name, mode, args.seed, ops)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(str(exc))
                continue
            if cell["failed"]:
                failures.append(f"{name} [{mode}]: {cell['failed']} of "
                                f"{ops} requests failed")
            if mode == "absent":
                absent = cell["ops_per_ref_s"]
            slowdown = f"{absent / cell['ops_per_ref_s']:.2f}x" \
                if absent else "-"
            print(f"{name:<22} {mode:<13} {ops:>7} "
                  f"{cell['ops_per_ref_s']:>10.0f} {slowdown:>9} "
                  f"{cell['peak_rss_mb']:>9.1f} "
                  f"{cell['events_per_op']:>10.2f}", flush=True)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
