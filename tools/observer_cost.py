#!/usr/bin/env python3
"""What the repo's own observer costs when it is *present*.

    python tools/observer_cost.py [--smoke] [--seed 1]

Two hostbench workloads that construct no run log — the common case
(``steady-single-leader``) and the full MVE lifecycle
(``update-rule-heavy``) — each run five ways: with no observer
installed ("absent", what ``hostbench/run.py`` measures), with one
run-log writer (``repro.obs.trace.Tracer``) in the tracer slot, the
spans slot, or both, and with a writer in the recorder slot alone
("recorder": the leader's syscall stream, every iteration of the
round).  The recorder is built as
``repro.replay.recorder.StreamRecorder()``, the name the benchmark's
probe table resolves, so this script measures a tree from before the
recorder joined the run log the same way.  Per cell, printed: ops per
reference-speed host second (the median of the cell's rounds, with
their min-max spread), how many times slower than "absent" (median
against median), peak RSS (the highest of the rounds), trace events per
op and spans per op.

A cell *is* a hostbench round — ``hostbench/child.py``'s ``run_round``
builds the workload from ``hostbench/workloads.py`` and times its slices
against the calibration kernel — run inside
``repro.sites.observing(tracer=..., spans=..., recorder=...)``, in one
fresh subprocess (this script with ``--cell``) under ``run.py``'s child
environment, so no cell inherits another's heap.  Each cell runs
:data:`ROUNDS` times, a workload's cells taking turns round by round so
drift on the host spreads over all five modes alike.

This is a record, not a gate: no verdict, exit 1 only when a cell
crashed or failed its functional check.  A host-time *claim* still
goes through ``tools/ab_hostbench.py``.  ``--smoke`` runs one round and
divides ops by hostbench's smoke divisor (CI: the machinery works).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
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
MODES = ("absent", "tracer", "spans", "tracer+spans", "recorder")
#: Rounds per cell, each in a fresh subprocess (one under ``--smoke``):
#: back to back, a single round's row moves by up to a third.
ROUNDS = 3


def run_cell(name: str, mode: str, seed: int, ops: int) -> Dict[str, Any]:
    """One untraced hostbench round of ``name`` in this process, under
    one observer mode: the tracer and spans slots ``mode`` names hold
    one writer, the recorder slot a ``StreamRecorder`` of its own."""
    sys.path.insert(0, child.SRC)
    from repro.obs.trace import Tracer
    from repro.replay.recorder import StreamRecorder
    from repro.sites import observing
    installed = mode.split("+")
    log = Tracer()
    with observing(tracer=log if "tracer" in installed else None,
                   spans=log if "spans" in installed else None,
                   recorder=StreamRecorder()
                   if "recorder" in installed else None):
        record = child.run_round(name, seed, ops, False, time.perf_counter())
    attempted = record["attempted"]
    return {
        "ops_per_ref_s": attempted / record["ref_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "events_per_op": log.event_count / attempted,
        "spans_per_op": len(log.spans) / attempted,
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
    rounds = 1 if args.smoke else ROUNDS
    print(f"{'workload':<22} {'observer':<13} {'ops':>7} {'ops/ref s':>10} "
          f"{'min-max':>13} {'slowdown':>9} {'peak MiB':>9} "
          f"{'events/op':>10} {'spans/op':>9}")
    for name, ops in OPS.items():
        if args.smoke:
            ops //= workloads.SMOKE_DIVISOR
        cells: Dict[str, List[Dict[str, Any]]] = {mode: [] for mode in MODES}
        for _ in range(rounds):
            for mode in MODES:
                try:
                    cell = spawn_cell(name, mode, args.seed, ops)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    failures.append(str(exc))
                    continue
                if cell["failed"]:
                    failures.append(f"{name} [{mode}]: {cell['failed']} "
                                    f"of {ops} requests failed")
                cells[mode].append(cell)
        absent = None
        for mode, samples in cells.items():
            if not samples:
                continue
            speeds = [sample["ops_per_ref_s"] for sample in samples]
            median = statistics.median(speeds)
            if mode == "absent":
                absent = median
            slowdown = f"{absent / median:.2f}x" if absent else "-"
            spread = f"{min(speeds):.0f}-{max(speeds):.0f}"
            print(f"{name:<22} {mode:<13} {ops:>7} {median:>10.0f} "
                  f"{spread:>13} {slowdown:>9} "
                  f"{max(sample['peak_rss_mb'] for sample in samples):>9.1f} "
                  f"{samples[0]['events_per_op']:>10.2f} "
                  f"{samples[0]['spans_per_op']:>9.2f}", flush=True)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
