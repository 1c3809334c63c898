#!/usr/bin/env python3
"""A/B a hostbench workload: a parent revision against this tree.

    python tools/ab_hostbench.py PARENT_REV --workload W
                                 [--pairs 10] [--seconds 20] [--smoke]

``PARENT_REV`` is exported (``git archive``) into a temporary directory
that is removed afterwards; the *change* side is the working tree the
script lives in, uncommitted edits included.  Each pair runs the
unmodified ``hostbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each tree with the same seed (101, 102, …), and the
side that goes first flips every pair, so slow drift of the host
favours neither.

Printed: the per-pair ``ops_per_host_s`` of both sides, each side's
median and quartiles for the three end-to-end metrics, the change's
wins, and the verdict of the choosing-metrics guide, section 8 — a gain
is claimed only when the change wins at least nine tenths of the pairs
(ties count for neither side) *and* the medians differ by more than the
distance between the parent's own quartiles.

Exit status: 0 verdict met, 1 verdict not met, 2 a run failed (crash,
or any operation failing its functional check).  ``--smoke`` passes
``--smoke`` to ``run.py`` (ops/50, one round) and only checks that the
machinery works: the verdict is printed but never gates.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(name, better)`` of the end-to-end metrics ``run.py`` reports.
METRICS = (("ops_per_host_s", "higher"), ("setup_s", "lower"),
           ("peak_rss_mb", "lower"))
CLAIMED = "ops_per_host_s"
FIRST_SEED = 101


class RunFailed(Exception):
    """One ``run.py`` invocation crashed or reported failed operations."""


def export_revision(rev: str, into: str) -> None:
    """Unpack the committed files of ``rev`` under ``into``."""
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev],
                               stdout=subprocess.PIPE)
    unpack = subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or unpack.returncode != 0:
        raise RunFailed(f"cannot export revision {rev!r}")


def measure(tree: str, workload: str, seed: int, seconds: float,
            smoke: bool) -> Dict[str, float]:
    """One ``run.py`` measurement in ``tree``; metric name -> value."""
    command = [sys.executable, os.path.join(tree, "hostbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{tree}: run.py exited {done.returncode} "
                        "without a result line") from None
    if done.returncode != 0 or result["failed"] or not result["correct"]:
        raise RunFailed(f"{tree}: {result['failed']} of "
                        f"{result['attempted']} operations failed "
                        f"(exit {done.returncode})")
    return {name: result["metrics"][name]["value"] for name, _ in METRICS}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: List[float], change: List[float],
            better: str) -> Tuple[int, bool]:
    """``(wins, met)`` for the change under the section-8 rule."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - parent_median)
    return wins, wins >= 0.9 * len(parent) and gap > q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating parent/change hostbench measurements.")
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name, _ in METRICS}
        for side in ("parent", "change")}
    try:
        with tempfile.TemporaryDirectory(prefix="ab_hostbench-") as parent:
            export_revision(args.parent_rev, parent)
            trees = {"parent": parent, "change": REPO}
            print(f"{args.workload}: {args.pairs} pair(s), {args.seconds:g} s "
                  f"each side, parent = {args.parent_rev}")
            print(f"{'pair':>4} {'seed':>5} {'first':>6} "
                  f"{'parent':>12} {'change':>12}  {CLAIMED}")
            for pair in range(args.pairs):
                seed = FIRST_SEED + pair
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    values = measure(trees[side], args.workload, seed,
                                     args.seconds, args.smoke)
                    for name, value in values.items():
                        sides[side][name].append(value)
                print(f"{pair + 1:>4} {seed:>5} {order[0]:>6} "
                      f"{sides['parent'][CLAIMED][-1]:>12.1f} "
                      f"{sides['change'][CLAIMED][-1]:>12.1f}", flush=True)
    except RunFailed as failure:
        print(f"FAILED: {failure}")
        return 2

    print(f"\n{'metric':<16} {'side':<7} {'q1':>12} {'median':>12} "
          f"{'q3':>12}")
    for name, _ in METRICS:
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(sides[side][name])
            print(f"{name:<16} {side:<7} {q1:>12.4f} {median:>12.4f} "
                  f"{q3:>12.4f}")
    parent, change = sides["parent"][CLAIMED], sides["change"][CLAIMED]
    wins, met = verdict(parent, change, dict(METRICS)[CLAIMED])
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    print(f"\n{CLAIMED}: change ahead in {wins}/{args.pairs} pairs; median "
          f"{parent_median:.1f} -> {change_median:.1f} "
          f"({change_median / parent_median:.3f}x), parent quartile "
          f"distance {q3 - q1:.1f}")
    print("verdict: " + ("gain shown" if met else "gain NOT shown")
          + (" (smoke: not gated)" if args.smoke else ""))
    return 0 if met or args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
