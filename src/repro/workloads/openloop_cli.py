"""The ``python -m repro openloop`` entry point.

    python -m repro openloop kvstore            # run + OPENLOOP_kvstore.json
    python -m repro openloop kvstore --quick    # smaller workload (CI smoke)
    python -m repro openloop redis --workers 3  # byte-identical to serial
    python -m repro openloop kvstore --check    # gate on repro-openloop/1
    python -m repro openloop kvstore --slo      # embed a repro-slo/1 section

Runs one open-loop scenario (see
:mod:`repro.workloads.openloop_scenarios`): the identical arrival
stream served native, under MVE, under a Kitsune-style restart update,
and under the full Mvedsua wave — open- and closed-loop — and writes
the ``repro-openloop/1`` report with per-cell offered/achieved
throughput, p50/p99/p999, upgrade-window percentiles, and the
coordinated-omission contrast checks.  The schema is documented in
``docs/workloads.md``.

A failed contrast check is reported in the table, not through the
exit status: under :mod:`repro.cli`'s policy 1 means ``--check`` found
schema problems or the scenario's spec is malformed.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.workloads.openloop_scenarios import (
    OPENLOOP_SCHEMA,
    OPENLOOP_SPECS,
    run_openloop_scenario,
    scenario_spec,
    validate_openloop_report,
)


def configure(parser) -> None:
    parser.description = ("Drive an open-loop (coordinated-omission-free) "
                          "workload through native, MVE, restart-DSU, and "
                          "Mvedsua upgrade waves and write a "
                          "repro-openloop/1 report.")
    parser.add_argument("scenario", choices=sorted(OPENLOOP_SPECS),
                        help="which open-loop scenario to run")
    cli.add_report_path(parser, "--out", "OPENLOOP_<scenario>.json")
    cli.add_shared(parser, "seed", "quick", "workers", "check")
    parser.add_argument("--slo", action="store_true",
                        help="also embed a full repro-slo/1 section "
                             "under the report's 'slo_report' key")


def run(args) -> int:
    spec = scenario_spec(args.scenario, args.quick)
    if cli.fail(spec.problems(), "load spec problem"):
        return 1

    report = run_openloop_scenario(args.scenario, seed=args.seed,
                                   quick=args.quick, workers=args.workers,
                                   slo=args.slo)

    out = args.out or f"OPENLOOP_{args.scenario}.json"
    cli.write_json(out, report, indent=1, sort_keys=False)

    total = sum(row["requests"] for row in report["cells"])
    print(f"repro openloop {args.scenario}: {total} requests over "
          f"{len(report['cells'])} cells -> {out}")
    print(render_report(report))

    if args.slo:
        from repro.obs.slo_cli import render_report as render_slo
        slo = report["slo_report"]
        print()
        print(f"slo ({slo['spec']['name']}): {slo['requests']} "
              f"requests, {slo['violating_requests']} over budget")
        print(render_slo(slo))

    if args.check:
        problems = validate_openloop_report(report)
        if args.slo:
            from repro.obs.slo import validate_slo_report
            problems += [f"slo_report: {p}" for p in
                         validate_slo_report(report["slo_report"])]
        return cli.check_verdict(problems, out, OPENLOOP_SCHEMA)
    return 0


def render_report(report: dict) -> str:
    """Human-readable tables for a repro-openloop/1 report."""
    sections = []
    sections.append(format_table(
        ["cell", "offered rps", "achieved rps", "p50 (ns)", "p99 (ns)",
         "p999 (ns)", "pause (ns)", "slo avail"],
        [[row["cell"], row["offered_rps"], row["achieved_rps"],
          row["p50_ns"], row["p99_ns"], row["p999_ns"], row["pause_ns"],
          f"{row['slo_availability']:.4f}"]
         for row in report["cells"]]))
    contrast = report["contrast"]
    sections.append(format_table(
        ["contrast", "value (ns)"],
        [[key, value] for key, value in contrast.items()]))
    sections.append(format_table(
        ["check", "status"],
        [[check["check"], "ok" if check["ok"] else "VIOLATED"]
         for check in report["checks"]]))
    return "\n\n".join(sections)
