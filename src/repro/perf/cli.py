"""The ``python -m repro perf`` entry point.

    python -m repro perf                  # run every scenario, print table
    python -m repro perf --quick          # 1/5th the ops
    python -m repro perf --json           # also write BENCH_perf.json
    python -m repro perf --scenario NAME  # subset (repeatable)
    python -m repro perf --diff BENCH_perf.json  # the gauge gate
    python -m repro perf --slo            # virtual-time latency percentiles

Every number printed or written is a deterministic virtual-time gauge;
host time is ``python3 hostbench/run.py``'s job.  The scenarios are the
``perf`` rows of :data:`repro.scenarios.SCENARIOS`; they and the
BENCH_perf.json schema are documented in ``docs/performance.md``.
``--diff`` compares the fresh run against a committed baseline and
exits 1 when any gauge drifted.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.perf.diff import diff_bench, format_diff, gate_failures
from repro.perf.harness import SCHEMA, run_scenarios, validate_bench
from repro.report import decode
from repro.scenarios import SCENARIOS


def configure(parser) -> None:
    parser.description = ("Deterministic gauges of the MVE hot-path "
                          "configurations, and the gate that pins them.")
    cli.add_shared(parser, "quick")
    parser.add_argument("--json", action="store_true",
                        help=f"write the {SCHEMA} report")
    cli.add_report_path(parser, "--out", "BENCH_perf.json",
                        note="; only with --json")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        choices=sorted(SCENARIOS["perf"]),
                        help="run only NAME (repeatable); choices: "
                             + ", ".join(sorted(SCENARIOS["perf"])))
    parser.add_argument("--ops", type=cli.positive_int, metavar="N",
                        help="override every scenario's operation count")
    parser.add_argument("--slo", action="store_true",
                        help="print the per-scenario virtual-time "
                             "latency percentile table")
    parser.add_argument("--diff", metavar="BASELINE",
                        help="compare against a committed BENCH_perf.json; "
                             "exit 1 when a gauge drifted")


def run(args) -> int:
    baseline = _load_baseline(args.diff) if args.diff else None

    payload = run_scenarios(args.scenario, quick=args.quick, ops=args.ops)
    meta = payload["_meta"]
    rows = [(name, payload[name]) for name in meta["scenario_order"]]
    print("repro perf: deterministic gauges (virtual time, exact)")
    print(format_table(
        ["scenario", "ops", "vrequests", "syscalls", "ring hwm", "stalls"],
        [[name, meta["ops"][name], g["vrequests"], g["syscalls"],
          g["ring_high_watermark"], g["ring_stalls"]] for name, g in rows]))

    if args.slo:
        print("\nvirtual-time request latency:")
        print(format_table(
            ["scenario", "p50 (ns)", "p99 (ns)", "p999 (ns)"],
            [[name, g["latency_p50_ns"], g["latency_p99_ns"],
              g["latency_p999_ns"]] for name, g in rows]))

    exit_code = 0
    if args.json:
        out = args.out or "BENCH_perf.json"
        cli.write_json(out, payload, indent=2, sort_keys=True)
        print(f"wrote {out}")
        exit_code = cli.fail(validate_bench(payload), "bench problem")

    if baseline is not None:
        deltas = diff_bench(payload, baseline, subset=bool(args.scenario))
        print(f"\ndiff vs {args.diff}:")
        print(format_diff(deltas))
        if cli.fail(gate_failures(deltas), "--diff gate FAILED"):
            return 1
        print("--diff gate passed")
    return exit_code


def _load_baseline(path: str) -> dict:
    """The ``--diff`` baseline, refused before any scenario runs unless
    it is a well-formed report of this schema: a truncated, wrong or
    older-schema file must not green-light a regression."""
    try:
        with open(path, encoding="utf-8") as handle:
            baseline = decode(handle.read())
    except ValueError as exc:    # not UTF-8, not JSON, or nested too deep
        raise cli.UsageError(f"unusable baseline {path}: cannot decode: "
                             f"{exc}") from None
    problems = validate_bench(baseline)
    if problems:
        raise cli.UsageError(f"unusable baseline {path}: "
                             + "; ".join(problems))
    return baseline
