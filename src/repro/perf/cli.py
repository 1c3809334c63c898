"""The ``python -m repro perf`` entry point.

    python -m repro perf                  # run every scenario, print table
    python -m repro perf --quick          # 1/5th the ops (CI smoke)
    python -m repro perf --json           # also write BENCH_perf.json
    python -m repro perf --scenario NAME  # subset (repeatable)
    python -m repro perf --repeat 3       # best-of-3 per scenario
    python -m repro perf --workers auto   # shard scenarios across CPUs
    python -m repro perf --diff BENCH_perf.json  # regression gate
    python -m repro perf --slo            # virtual-time latency percentiles

The BENCH_perf.json schema and the scenario catalogue are documented in
``docs/performance.md``.  ``--diff`` compares the fresh run against a
committed baseline and exits 1 when a deterministic gauge drifted or
``vreq_per_s`` dropped beyond ``--tolerance``; ``--workers`` changes
only wall-clock numbers, never gauges or report shape.
"""

from __future__ import annotations

import argparse
import json

from repro import cli
from repro.bench.reporting import format_table
from repro.perf.diff import DEFAULT_TOLERANCE, diff_bench, format_diff
from repro.perf.harness import run_scenarios, to_bench_dict, validate_bench
from repro.perf.scenarios import SCENARIOS


def _fraction(text: str) -> float:
    """argparse ``type=`` of ``--tolerance``: strictly inside (0, 1)."""
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def configure(parser) -> None:
    parser.description = ("Wall-clock benchmark of the MVE simulator hot "
                          "paths.")
    cli.add_shared(parser, "quick")
    parser.add_argument("--json", action="store_true",
                        help="write the repro-perf/4 report")
    cli.add_report_path(parser, "--out", "BENCH_perf.json",
                        note="; only with --json")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        choices=sorted(SCENARIOS),
                        help="run only NAME (repeatable); choices: "
                             + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--ops", type=cli.positive_int, metavar="N",
                        help="override every scenario's operation count")
    parser.add_argument("--repeat", type=cli.positive_int, default=1,
                        metavar="K",
                        help="run each scenario K times, keep the fastest")
    cli.add_shared(parser, "workers")
    parser.add_argument("--slo", action="store_true",
                        help="print the per-scenario virtual-time "
                             "latency percentile table (the "
                             "latency_p*_ns gauges from repro-perf/4)")
    parser.add_argument("--diff", metavar="BASELINE",
                        help="compare against a committed BENCH_perf.json; "
                             "exit 1 on gauge drift or rate regression")
    parser.add_argument("--tolerance", type=_fraction,
                        default=DEFAULT_TOLERANCE, metavar="F",
                        help="allowed fractional vreq_per_s drop before "
                             "--diff fails (default: %(default)s)")


def run(args) -> int:
    baseline = _load_baseline(args.diff) if args.diff else None

    results = run_scenarios(args.scenario, quick=args.quick, ops=args.ops,
                            repeat=args.repeat, workers=args.workers)
    print("repro perf: virtual requests simulated per wall-clock second")
    print(format_table(
        ["scenario", "ops", "wall s", "vreq/s", "syscalls/s",
         "ring hwm", "stalls"],
        [[r.name, r.ops, f"{r.wall_s:.3f}", f"{r.vreq_per_s:,.0f}",
          f"{r.syscalls_per_s:,.0f}",
          "-" if r.ring_high_watermark is None else r.ring_high_watermark,
          "-" if r.ring_stalls is None else r.ring_stalls]
         for r in results]))

    if args.slo:
        latency_rows = [
            [r.name, r.extras["latency_p50_ns"], r.extras["latency_p99_ns"],
             r.extras["latency_p999_ns"]]
            for r in results if "latency_p50_ns" in r.extras]
        print()
        if latency_rows:
            print("virtual-time request latency (exact, deterministic):")
            print(format_table(
                ["scenario", "p50 (ns)", "p99 (ns)", "p999 (ns)"],
                latency_rows))
        else:
            print("no selected scenario reports latency percentiles")

    exit_code = 0
    payload = to_bench_dict(results, quick=args.quick,
                            workers=args.workers)
    if args.json:
        out = args.out or "BENCH_perf.json"
        cli.write_json(out, payload, indent=2, sort_keys=True)
        print(f"wrote {out}")
        exit_code = cli.fail(validate_bench(payload), "bench problem")

    if baseline is not None:
        deltas = diff_bench(payload, baseline, tolerance=args.tolerance)
        print(f"\ndiff vs {args.diff} (tolerance {args.tolerance}):")
        print(format_diff(deltas))
        failures = [p for d in deltas for p in d.problems]
        if failures:
            print(f"\n--diff gate FAILED: {len(failures)} problem(s)")
            exit_code = 1
        else:
            print("\n--diff gate passed")
    return exit_code


def _load_baseline(path: str) -> dict:
    """The ``--diff`` baseline, refused before any scenario runs unless
    it is a well-formed repro-perf/4 report: a truncated or wrong file
    must not green-light a regression."""
    try:
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except json.JSONDecodeError as exc:
        raise cli.UsageError(f"cannot read baseline {path}: {exc}") from None
    problems = (validate_bench(baseline) if isinstance(baseline, dict)
                else ["not a JSON object"])
    if problems:
        raise cli.UsageError(f"unusable baseline {path}: "
                             + "; ".join(problems))
    return baseline
