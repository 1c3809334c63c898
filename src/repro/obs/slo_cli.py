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

Exit codes: 0 on success (SLO violations are *findings*, not errors),
1 when ``--check`` finds schema problems or the spec itself is
malformed, 2 on unknown scenarios.
"""

from __future__ import annotations

import argparse
import json
from typing import Iterable, Optional

from repro.bench.reporting import format_table
from repro.obs.slo import SLO_SCHEMA, validate_slo_report
from repro.obs.slo_scenarios import (
    SLO_SCENARIOS,
    SLO_SPECS,
    run_slo_scenario,
)
from repro.obs.trace import Tracer, tracing
from repro.replay.parallel import resolve_workers


def slo_main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro slo",
        description="Run an SLO scenario under span tracing and write "
                    "a repro-slo/1 report with per-phase percentiles "
                    "and critical-path attributions.")
    parser.add_argument("scenario", choices=sorted(SLO_SCENARIOS),
                        help="which SLO scenario to run")
    parser.add_argument("--out", metavar="PATH",
                        help="report output path "
                             "(default: SLO_<scenario>.json)")
    parser.add_argument("--seed", type=int, default=1,
                        help="scenario seed (default: %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="run a reduced workload (CI smoke)")
    parser.add_argument("--workers", type=resolve_workers, default="1",
                        metavar="N",
                        help="worker processes ('auto' = one per CPU); "
                             "the report is byte-identical at any count")
    parser.add_argument("--check", action="store_true",
                        help="validate the report against repro-slo/1; "
                             "non-zero exit on problems")
    parser.add_argument("--spans", metavar="PATH",
                        help="also write the first cell's spans as a "
                             "repro-span/1 JSONL file at PATH")
    args = parser.parse_args(list(argv) if argv is not None else None)

    spec = SLO_SPECS[args.scenario]
    spec_problems = spec.problems()
    if spec_problems:
        for problem in spec_problems:
            print(f"slo spec problem: {problem}")
        return 1

    report = run_slo_scenario(args.scenario, seed=args.seed,
                              quick=args.quick, workers=args.workers)
    out = args.out or f"SLO_{args.scenario}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=False)
        handle.write("\n")

    if args.spans:
        _dump_spans(args.scenario, args.seed, args.quick, args.spans)

    print(f"repro slo {args.scenario}: {report['requests']} requests, "
          f"{report['violating_requests']} over budget -> {out}")
    print(render_report(report))

    if args.check:
        problems = validate_slo_report(report)
        if problems:
            for problem in problems:
                print(f"schema problem: {problem}")
            return 1
        print(f"schema ok: {out} is valid {SLO_SCHEMA}")
    return 0


def _dump_spans(scenario: str, seed: int, quick: bool, path: str) -> None:
    """Re-run the scenario's first cell and dump its raw spans."""
    tracer = Tracer(experiment=f"slo-{scenario}", spans=True)
    with tracing(tracer):
        # run_slo_cell builds its own tracer; re-drive the cell under
        # ours so the dump and the report share one code path.
        driver, cells = SLO_SCENARIOS[scenario]
        name, params = cells[0]
        driver(params, seed, quick)
    assert tracer.spans is not None
    tracer.spans.write_jsonl(path, experiment=f"slo-{scenario}")
    print(f"wrote spans: {path} ({len(tracer.spans.spans)} spans)")


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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(slo_main())
