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
1 when any cell is classified ``invariant-violation`` or the written
report fails its own schema validation — so CI can gate on the paper's
core claim directly.  ``--workers`` changes only wall-clock
time, never the report: the parallel merge is deterministic and
byte-identical to the serial run for the same seed.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.chaos.campaign import (ONCALL_CAP, OUTCOMES, run_campaign,
                                  validate_report)
from repro.chaos.plan import load_plan
from repro.scenarios import SCENARIOS


def configure(parser) -> None:
    parser.description = ("Deterministic fault-injection campaigns with "
                          "invariant checking.")
    parser.add_argument("scenario", choices=sorted(SCENARIOS["chaos"]),
                        help="which scenario to sweep "
                             "(kvstore-distributed crosses the MVE "
                             "ring over a link, adding fleet.ring "
                             "partition cells)")
    parser.add_argument("--plan", metavar="PATH",
                        help="run one fault plan (a Python file exposing "
                             "plan()) instead of the generated grid")
    cli.add_report_path(parser, "--report", "CHAOS_<scenario>.json")
    parser.add_argument("--max-cells", type=cli.positive_int, metavar="N",
                        help="truncate the grid to its first N cells")
    cli.add_shared(parser, "seed", "workers")
    parser.add_argument("--oncall-cap", type=cli.positive_int,
                        default=ONCALL_CAP, metavar="N",
                        help="per-(site, kind) cap on the on-call index "
                             "sweep (default: %(default)s)")
    parser.add_argument("--record", metavar="PATH",
                        help="record the fault-free baseline run (or, "
                             "with --plan, the faulted run) as a "
                             "repro-stream/1 artifact at PATH")
    parser.add_argument("--slo", action="store_true",
                        help="print exact recovery-latency percentiles "
                             "and the ordering-anomaly tally after the "
                             "outcome table")


def _usable_plan(path: str):
    """The plan ``--plan PATH`` names, loaded and validated before
    anything runs; a file that yields no valid plan is a usage error."""
    try:
        plan = load_plan(path)
        problems = plan.validate()
    except OSError:
        raise
    except Exception as exc:  # the file is the user's code: anything
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        raise cli.UsageError(f"cannot use fault plan {path!r}: "
                             + "; ".join(problems))
    return plan


def run(args) -> int:
    plan = _usable_plan(args.plan) if args.plan else None
    report = run_campaign(args.scenario, seed=args.seed,
                          max_cells=args.max_cells, plan=plan,
                          workers=args.workers, oncall_cap=args.oncall_cap,
                          record=args.record)

    print(f"chaos campaign: {args.scenario} "
          f"({report['cells']} cells, seed {report['seed']}, "
          f"{args.workers} worker{'s' if args.workers != 1 else ''})")
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
    cli.write_json(path, report, indent=2, sort_keys=True)
    print(f"\nwrote report: {path}")
    if args.record:
        print(f"wrote stream: {args.record}")

    malformed = cli.fail(validate_report(report), "report problem")
    return 1 if violations or malformed else 0
