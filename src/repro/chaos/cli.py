"""``python -m repro chaos`` — run a fault-injection campaign.

    python -m repro chaos kvstore                 # full grid
    python -m repro chaos kvstore-distributed     # + fleet.ring partitions
    python -m repro chaos kvstore --max-cells 200 # bounded (CI smoke)
    python -m repro chaos kvstore --plan my.py    # one custom plan
    python -m repro chaos kvstore --report out.json
    python -m repro chaos kvstore --workers auto  # shard across CPUs
    python -m repro chaos kvstore --oncall-cap 48 # wider on-call sweep
    python -m repro chaos kvstore --record STREAM # record the baseline
    python -m repro chaos kvstore --slo           # recovery percentiles

The report is JSON with schema ``repro-chaos/1`` (see
``docs/chaos.md``); stdout carries the outcome tally.  Exit status is
non-zero when any cell is classified ``invariant-violation`` or the
written report fails its own schema validation — so CI can gate on the
paper's core claim directly.  ``--workers`` changes only wall-clock
time, never the report: the parallel merge is deterministic and
byte-identical to the serial run for the same seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.bench.reporting import format_table
from repro.chaos.campaign import (ONCALL_CAP, OUTCOMES, run_campaign,
                                  validate_report)
from repro.chaos.plan import load_plan
from repro.replay.parallel import resolve_workers


def chaos_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Deterministic fault-injection campaigns with "
                    "invariant checking.")
    parser.add_argument("scenario",
                        choices=["kvstore", "kvstore-distributed"],
                        help="which scenario to sweep "
                             "(kvstore-distributed crosses the MVE "
                             "ring over a link, adding fleet.ring "
                             "partition cells)")
    parser.add_argument("--plan", metavar="PATH",
                        help="run one fault plan (a Python file exposing "
                             "plan()) instead of the generated grid")
    parser.add_argument("--report", metavar="PATH",
                        help="where to write the JSON report (default: "
                             "CHAOS_<scenario>.json)")
    parser.add_argument("--max-cells", type=int, metavar="N",
                        help="truncate the grid to its first N cells")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default: 1)")
    parser.add_argument("--workers", type=resolve_workers, default="1",
                        metavar="N|auto",
                        help="shard grid cells across N processes "
                             "('auto' = one per CPU; default: 1, the "
                             "serial golden reference)")
    parser.add_argument("--oncall-cap", type=int, default=ONCALL_CAP,
                        metavar="N",
                        help="per-(site, kind) cap on the on-call index "
                             f"sweep (default: {ONCALL_CAP})")
    parser.add_argument("--record", metavar="PATH",
                        help="record the fault-free baseline run (or, "
                             "with --plan, the faulted run) as a "
                             "repro-stream/1 artifact at PATH")
    parser.add_argument("--slo", action="store_true",
                        help="print exact recovery-latency percentiles "
                             "and the ordering-anomaly tally after the "
                             "outcome table")
    args = parser.parse_args(argv)

    workers = args.workers
    if args.oncall_cap < 1:
        parser.error(f"--oncall-cap must be >= 1, got {args.oncall_cap}")

    plan = load_plan(args.plan) if args.plan else None
    report = run_campaign(args.scenario, seed=args.seed,
                          max_cells=args.max_cells, plan=plan,
                          workers=workers, oncall_cap=args.oncall_cap,
                          record=args.record)

    print(f"chaos campaign: {args.scenario} "
          f"({report['cells']} cells, seed {report['seed']}, "
          f"{workers} worker{'s' if workers != 1 else ''})")
    print()
    rows = [[outcome, str(report["outcomes"][outcome])]
            for outcome in OUTCOMES]
    print(format_table(["outcome", "cells"], rows))
    violations = [entry for entry in report["grid"]
                  if entry["outcome"] == "invariant-violation"]
    for entry in violations:
        print(f"  VIOLATION {entry['name']}: {entry['detail']}")

    if args.slo:
        from repro.obs.metrics import Histogram
        hist = Histogram("recovery_latency_ns")
        for entry in report["grid"]:
            latency = entry.get("recovery_latency_ns")
            if latency is not None:
                hist.observe(latency)
        print()
        if hist.count:
            print(format_table(
                ["recovered cells", "p50 (ns)", "p99 (ns)", "p999 (ns)",
                 "max (ns)"],
                [[hist.count, hist.quantile(0.5), hist.quantile(0.99),
                  hist.quantile(0.999), hist.max_value]]))
        else:
            print("no cell recorded a recovery latency")
        anomalies = report["outcomes"].get("ordering-anomaly", 0)
        print(f"ordering anomalies (recovery before injection): "
              f"{anomalies}")

    path = args.report or f"CHAOS_{args.scenario}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote report: {path}")
    if args.record:
        print(f"wrote stream: {args.record}")

    problems = validate_report(report)
    for problem in problems:
        print(f"  report problem: {problem}", file=sys.stderr)
    return 1 if violations or problems else 0


if __name__ == "__main__":
    sys.exit(chaos_main())
