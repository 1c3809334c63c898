#!/usr/bin/env python3
"""A/B hostbench workloads: a parent revision against this tree.

    python tools/ab_hostbench.py PARENT_REV [--workload W [--metric M]]
                                 [--pairs 10] [--seconds 20] [--smoke]

``PARENT_REV`` is exported (``git archive``) into a temporary directory
that is removed afterwards; the *change* side is the working tree the
script lives in, uncommitted edits included.  Each pair runs the
unmodified ``hostbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each tree with the same seed (101, 102, …), and the
side that goes first flips every pair, so slow drift of the host
favours neither.

With ``--workload W`` (a change that claims a gain), printed: the
per-pair claimed metric of both sides (``--metric``, any end-to-end
name in ``BENCHMARK.json``; default ``ops_per_host_s``), each side's
median and quartiles for every end-to-end metric, the change's wins,
and the verdict of the choosing-metrics guide, section 8 — a gain is
claimed only when the change wins at least nine tenths of the pairs
(ties count for neither side) *and* the medians differ by more than
the distance between the parent's own quartiles, both read in the
direction ``BENCHMARK.json`` says is ``better`` for the metric.  Exit
1 when the gain is not shown.

With ``--workload`` omitted (a change that claims none), every workload
named in ``BENCHMARK.json`` is A/B'd the same way and each (end-to-end
metric, workload) is judged ``ok`` / ``regression`` / ``unresolved``
(or ``improved``) against the metric's bound in ``BENCHMARK.json`` —
by ``hostbench/compare.py``'s own ``judge``, so there is one copy of
the rule.  Exit 1 on any regression.

Exit 2 when a run failed (crash, or any operation failing its
functional check).  ``--smoke`` passes ``--smoke`` to ``run.py``
(ops/50, one round) and only checks that the machinery works: the
verdict is printed but never gates.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
#: ``(name, better)`` of the end-to-end metrics ``run.py`` reports.
METRICS = tuple((metric["name"], metric["better"])
                for metric in BENCHMARK["end_to_end"])
#: The metric a gain is claimed on unless ``--metric`` names another.
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


Samples = Dict[str, Dict[str, List[float]]]  # side -> metric -> values


def run_pairs(trees: Dict[str, str], workload: str, pairs: int,
              seconds: float, smoke: bool, shown: str) -> Samples:
    """Alternating measurements of one workload, a line printed per pair
    (with its ``shown`` metric)."""
    sides: Samples = {side: {name: [] for name, _ in METRICS}
                      for side in ("parent", "change")}
    print(f"{workload}: {pairs} pair(s), {seconds:g} s each side")
    print(f"{'pair':>4} {'seed':>5} {'first':>6} "
          f"{'parent':>12} {'change':>12}  {shown}")
    for pair in range(pairs):
        seed = FIRST_SEED + pair
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        for side in order:
            values = measure(trees[side], workload, seed, seconds, smoke)
            for name, value in values.items():
                sides[side][name].append(value)
        print(f"{pair + 1:>4} {seed:>5} {order[0]:>6} "
              f"{sides['parent'][shown][-1]:>12.6g} "
              f"{sides['change'][shown][-1]:>12.6g}", flush=True)
    return sides


def load_compare() -> Any:
    """``hostbench/compare.py`` as a module (it is a script, not a
    package member): the owner of ``judge`` and of the bounds."""
    spec = importlib.util.spec_from_file_location(
        "hostbench_compare", os.path.join(REPO, "hostbench", "compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(values: List[float]) -> Dict[str, Any]:
    """The stats shape ``compare.judge`` reads."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def judge_all(results: Dict[str, Samples], compare: Any
              ) -> List[Tuple[str, str, Dict[str, Any], Dict[str, Any], str]]:
    """``(metric, workload, parent stats, change stats, status)`` for
    every end-to-end metric of every measured workload."""
    rows = []
    for name, (better, bound) in compare.load_bounds().items():
        for workload, sides in results.items():
            parent = summary(sides["parent"][name])
            change = summary(sides["change"][name])
            rows.append((name, workload, parent, change,
                         compare.judge(name, better, bound, parent, change)))
    return rows


def report_gain(sides: Samples, pairs: int, smoke: bool,
                claimed: str) -> int:
    print(f"\n{'metric':<16} {'side':<7} {'q1':>12} {'median':>12} "
          f"{'q3':>12}")
    for name, _ in METRICS:
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(sides[side][name])
            print(f"{name:<16} {side:<7} {q1:>12.4f} {median:>12.4f} "
                  f"{q3:>12.4f}")
    parent, change = sides["parent"][claimed], sides["change"][claimed]
    wins, met = verdict(parent, change, dict(METRICS)[claimed])
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    print(f"\n{claimed}: change ahead in {wins}/{pairs} pairs; median "
          f"{parent_median:.6g} -> {change_median:.6g} "
          f"({change_median / parent_median:.3f}x), parent quartile "
          f"distance {q3 - q1:.6g}")
    print("verdict: " + ("gain shown" if met else "gain NOT shown")
          + (" (smoke: not gated)" if smoke else ""))
    return 0 if met or smoke else 1


def report_no_regression(results: Dict[str, Samples], smoke: bool) -> int:
    rows = judge_all(results, load_compare())
    print(f"\n{'metric':<16} {'workload':<24} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':>13}  status")
    for name, workload, parent, change, status in rows:
        cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                 for s in (parent, change)]
        print(f"{name:<16} {workload:<24} {cells[0]:<34} {cells[1]:<34} "
              f"{change['median'] / parent['median']:>13.4f}  {status}")
    tally = {status: sum(row[4] == status for row in rows)
             for status in ("ok", "improved", "unresolved", "regression")}
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{count} {status}" for status, count in tally.items())
        + (" (smoke: not gated)" if smoke else ""))
    return 1 if tally["regression"] and not smoke else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Alternating parent/change hostbench measurements.")
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--workload",
                        help="claim a gain on this workload (default: "
                             "every workload, judged for regressions)")
    parser.add_argument("--metric", default=CLAIMED,
                        choices=[name for name, _ in METRICS],
                        help="the end-to-end metric a --workload gain is "
                             f"claimed on (default: {CLAIMED})")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.metric != CLAIMED and not args.workload:
        parser.error("--metric names the claimed metric of a --workload")
    workloads = [args.workload] if args.workload \
        else [w["name"] for w in BENCHMARK["workloads"]]

    results: Dict[str, Samples] = {}
    try:
        with tempfile.TemporaryDirectory(prefix="ab_hostbench-") as parent:
            export_revision(args.parent_rev, parent)
            print(f"parent = {args.parent_rev}")
            for workload in workloads:
                results[workload] = run_pairs(
                    {"parent": parent, "change": REPO}, workload,
                    args.pairs, args.seconds, args.smoke, args.metric)
    except RunFailed as failure:
        print(f"FAILED: {failure}")
        return 2
    if args.workload:
        return report_gain(results[args.workload], args.pairs, args.smoke,
                           args.metric)
    return report_no_regression(results, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
