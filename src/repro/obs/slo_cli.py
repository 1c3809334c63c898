"""The ``python -m repro slo`` entry point.

    python -m repro slo fig7                 # run + write SLO_fig7.json
    python -m repro slo fig7 --quick         # smaller workload (CI smoke)
    python -m repro slo canary-kvstore --check
    python -m repro slo table1 --workers 2   # byte-identical to serial
    python -m repro slo fig7 --spans PATH    # also dump repro-span/1 JSONL

Runs every cell of an SLO scenario (see
:mod:`repro.obs.slo_scenarios`) under span tracing, checks the
scenario's :class:`~repro.obs.slo.SloSpec`, and writes the
``repro-slo/1`` report: per-upgrade-phase p50/p99/p999 tables, SLO
pass/fail checks, and critical-path attributions for the worst
SLO-violating requests.  The schema is documented in
``docs/observability.md``.

SLO violations are reported in the tables, not through the exit
status: under :mod:`repro.cli`'s policy 1 means ``--check`` found
schema problems or the spec itself is malformed.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.obs.slo import SLO_SCHEMA, validate_slo_report
from repro.obs.slo_scenarios import (
    SLO_SCENARIOS,
    SLO_SPECS,
    run_slo_scenario,
)
from repro.obs.spans import SpanCollector
from repro.sites import observing


def configure(parser) -> None:
    parser.description = ("Run an SLO scenario under span tracing and "
                          "write a repro-slo/1 report with per-phase "
                          "percentiles and critical-path attributions.")
    parser.add_argument("scenario", choices=sorted(SLO_SCENARIOS),
                        help="which SLO scenario to run")
    cli.add_report_path(parser, "--out", "SLO_<scenario>.json")
    cli.add_shared(parser, "seed", "quick", "workers", "check")
    parser.add_argument("--spans", metavar="PATH",
                        help="also write the first cell's spans as a "
                             "repro-span/1 JSONL file at PATH")


def run(args) -> int:
    spec = SLO_SPECS[args.scenario]
    if cli.fail(spec.problems(), "slo spec problem"):
        return 1

    report = run_slo_scenario(args.scenario, seed=args.seed,
                              quick=args.quick, workers=args.workers)
    out = args.out or f"SLO_{args.scenario}.json"
    cli.write_json(out, report, indent=1, sort_keys=False)

    if args.spans:
        _dump_spans(args.scenario, args.seed, args.quick, args.spans)

    print(f"repro slo {args.scenario}: {report['requests']} requests, "
          f"{report['violating_requests']} over budget -> {out}")
    print(render_report(report))

    if args.check:
        return cli.check_verdict(validate_slo_report(report), out,
                                 SLO_SCHEMA)
    return 0


def _dump_spans(scenario: str, seed: int, quick: bool, path: str) -> None:
    """Re-run the scenario's first cell and dump its raw spans."""
    spans = SpanCollector()
    with observing(spans=spans):
        # run_slo_cell installs its own collector; re-drive the cell
        # under ours so the dump and the report share one code path.
        driver, cells = SLO_SCENARIOS[scenario]
        _, params = cells[0]
        driver(params, seed, quick)
    spans.write_jsonl(path, experiment=f"slo-{scenario}")
    print(f"wrote spans: {path} ({len(spans.spans)} spans)")


def render_report(report: dict) -> str:
    """Human-readable tables for a repro-slo/1 report."""
    sections = []
    phases = report.get("phases", {})
    if phases:
        sections.append(format_table(
            ["phase", "requests", "p50 (ns)", "p99 (ns)", "p999 (ns)",
             "max (ns)"],
            [[phase, row["count"], row["p50_ns"], row["p99_ns"],
              row["p999_ns"], row["max_ns"]]
             for phase, row in phases.items()]))
    checks = report.get("checks", [])
    if checks:
        sections.append(format_table(
            ["check", "budget", "actual", "status"],
            [[check["check"], _exact(check["budget"]),
              _exact(check["actual"]),
              "ok" if check["ok"] else "VIOLATED"]
             for check in checks]))
    attributions = report.get("attributions", [])
    if attributions:
        sections.append(format_table(
            ["cell", "phase", "latency (ns)", "blame", "blame (ns)"],
            [[a["cell"], a["phase"], a["latency_ns"], a["blame"],
              a["blame_ns"]]
             for a in attributions]))
    return "\n\n".join(sections)


def _exact(value) -> object:
    """Keep ratio budgets exact in tables (format_table rounds floats
    to one decimal, which would print 0.99 as 1.0)."""
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return value
