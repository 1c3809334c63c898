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
import sys
from typing import Iterable, Optional

from repro.bench.reporting import format_table
from repro.perf.diff import DEFAULT_TOLERANCE, diff_bench, format_diff
from repro.perf.harness import (run_scenarios, to_bench_dict, validate_bench,
                                write_bench_json)
from repro.perf.scenarios import SCENARIOS
from repro.replay.parallel import resolve_workers


def perf_main(argv: Optional[Iterable[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Wall-clock benchmark of the MVE simulator hot paths.")
    parser.add_argument("--quick", action="store_true",
                        help="run 1/5th of each scenario's default ops")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_perf.json next to the cwd")
    parser.add_argument("--out", metavar="PATH", default="BENCH_perf.json",
                        help="where --json writes (default: %(default)s)")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        choices=sorted(SCENARIOS),
                        help="run only NAME (repeatable); choices: "
                             + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--ops", type=int, metavar="N",
                        help="override every scenario's operation count")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run each scenario K times, keep the fastest")
    parser.add_argument("--workers", type=resolve_workers, default="1",
                        metavar="N|auto",
                        help="shard scenarios across N processes ('auto' = "
                             "one per CPU; default: 1). Gauges and report "
                             "shape are identical to a serial run")
    parser.add_argument("--slo", action="store_true",
                        help="print the per-scenario virtual-time "
                             "latency percentile table (the "
                             "latency_p*_ns gauges from repro-perf/4)")
    parser.add_argument("--diff", metavar="BASELINE",
                        help="compare against a committed BENCH_perf.json; "
                             "exit 1 on gauge drift or rate regression")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        metavar="F",
                        help="allowed fractional vreq_per_s drop before "
                             "--diff fails (default: %(default)s)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    workers = args.workers
    if not 0 < args.tolerance < 1:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")

    results = run_scenarios(args.scenario, quick=args.quick, ops=args.ops,
                            repeat=args.repeat, workers=workers)
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
    payload = to_bench_dict(results, quick=args.quick, workers=workers)
    if args.json:
        write_bench_json(results, args.out, quick=args.quick,
                         workers=workers)
        print(f"wrote {args.out}")
        for problem in validate_bench(payload):
            print(f"  bench problem: {problem}", file=sys.stderr)
            exit_code = 1

    if args.diff:
        try:
            with open(args.diff, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.diff}: {exc}",
                  file=sys.stderr)
            return 2
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(perf_main())
