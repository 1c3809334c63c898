"""hostbench: what simulating the paper's experiments costs the host.

    python3 hostbench/run.py                      # six workloads, untraced
                                                  # rounds then traced ones
    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                  # one measurement; last
                                                  # stdout line is its JSON
    python3 hostbench/run.py --smoke              # self-test sizing
    python3 hostbench/run.py --out set.json       # keep the numbers for
                                                  # compare.py

A *round* is one fresh single-threaded subprocess (``child.py``): set
up the workload, time its thunk, exit.  Rounds run strictly one after
another — on the 2-core reference box that leaves one core to the OS —
with ``PYTHONHASHSEED=0`` and a pinned malloc policy (``CHILD_ENV``).  A measurement repeats rounds until
``--seconds`` are used up and reports medians over rounds.  With
``--trace 1`` untraced and traced rounds alternate: per-layer numbers
come from the traced rounds, and ``trace.overhead_ratio`` is traced
over untraced wall time.  End-to-end numbers always come from untraced
rounds.

Host-time and virtual-time numbers are never mixed: ``ops_per_host_s``,
``setup_s``, ``peak_rss_mb`` and every ``*.self_ms`` are host;
``vlat_max_ns`` and every ``sim.*`` counter are simulated and repeat
exactly for a seed — a mismatch between rounds fails the run.

Host seconds of timed regions are *reference-speed* seconds
(``ref_s``): a round runs its workload in slices of ~0.2 s with a fixed
calibration kernel between them (``child.calibrate``) and scales each
slice's wall time by the kernel's reference time over its measured
time, because the reference box's speed wanders by tens of percent
within seconds; ``setup_s`` is scaled the same way by the kernel runs
at its two ends.  The unscaled throughput and the speed itself are
reported as ``host.ops_per_wall_s`` and ``host.speed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports nothing from repro until built)

#: ``(name, unit, better)`` of the metrics a user of the simulator sees.
END_TO_END: List[Tuple[str, str, str]] = [
    ("ops_per_host_s", "ops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
#: Seconds one measurement spends by default (BENCHMARK.json run_seconds).
RUN_SECONDS = 20
#: Untraced rounds a measurement makes even when the budget is spent.
MIN_ROUNDS = 3
#: A round whose CPU/wall falls below this was disturbed by another
#: process: it is discarded and re-run, at most EXTRA_ROUNDS times.
CPU_OVER_WALL_FLOOR = 0.90
EXTRA_ROUNDS = 2
#: A child that runs longer than this is killed and counts as a crash.
CHILD_TIMEOUT_S = 150

#: Every round's environment.  Besides the fixed hash seed, glibc
#: malloc is told never to trim the heap and never to mmap below 32 MiB:
#: with its default *dynamic* thresholds the Redis AOF (a bytes object
#: re-allocated on every append) makes the same workload take anywhere
#: from 5 thousand to 660 thousand page faults depending on the seed —
#: even on the size of the environment block.
CHILD_ENV = {"PYTHONHASHSEED": "0",
             "MALLOC_TRIM_THRESHOLD_": "2000000000",
             "MALLOC_MMAP_THRESHOLD_": "33554432"}

Spawn = Callable[[str, int, int, bool], Dict[str, Any]]


def spawn_round(name: str, seed: int, ops: int, trace: bool) -> Dict[str, Any]:
    """Run one round in a fresh subprocess and return its record.

    A crash, a timeout or unparsable output yields a record in which
    every op failed.
    """
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", name, "--seed", str(seed), "--ops", str(ops),
               "--trace", str(int(trace)), "--t0", repr(t0)]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"exit code {done.returncode}: "
                               f"{done.stderr.strip()[-2000:]}")
        record = json.loads(done.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, RuntimeError, ValueError,
            IndexError) as exc:
        record = {"workload": name, "trace": trace, "crashed": str(exc),
                  "attempted": ops, "failed": ops,
                  "problems": [f"round crashed: {exc}"]}
    record["wall_s"] = time.perf_counter() - t0
    return record


def measure(workload: workloads.Workload, seed: int, seconds: float,
            trace: bool, smoke: bool, spawn: Spawn = spawn_round
            ) -> Dict[str, Any]:
    """Repeat rounds of one workload for ``seconds``; returns the raw
    round records, untraced and traced apart."""
    ops = workloads.smoke_ops(workload) if smoke else workload.ops
    started = time.perf_counter()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    disturbed = 0
    longest = 0.0
    min_untraced = 1 if (smoke or trace) else MIN_ROUNDS
    while True:
        # Untraced first, then alternate, so both kinds see the same
        # machine state over the run.
        want_traced = trace and len(traced) < len(untraced)
        record = spawn(workload.name, seed, ops, want_traced)
        longest = max(longest, record["wall_s"])
        if "crashed" in record:
            (traced if want_traced else untraced).append(record)
            break
        if record["cpu_over_wall"] < CPU_OVER_WALL_FLOOR \
                and disturbed < EXTRA_ROUNDS:
            disturbed += 1
            continue
        (traced if want_traced else untraced).append(record)
        enough = len(untraced) >= min_untraced \
            and (not trace or len(traced) >= 1)
        if enough and (smoke or time.perf_counter() - started + longest
                       > seconds):
            break
    return {"workload": workload.name, "seed": seed, "ops": ops,
            "untraced": untraced, "traced": traced,
            "disturbed_runs": disturbed}


# ---------------------------------------------------------------------------
# Reducing rounds to metrics
# ---------------------------------------------------------------------------

def spread(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and the samples themselves."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "n": len(values), "samples": values}


def _exact(records: List[Dict[str, Any]], read: Callable[[Dict], Any],
           what: str, problems: List[str]) -> Any:
    """A deterministic value: identical in every round, or a problem."""
    values = [read(record) for record in records]
    if any(value != values[0] for value in values[1:]):
        problems.append(f"{what} differs between rounds of one seed: "
                        f"{values}")
    return values[0]


def reduce_rounds(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one measurement's rounds into named metrics."""
    problems: List[str] = []
    rounds = raw["untraced"] + raw["traced"]
    for record in rounds:
        problems.extend(record.get("problems", []))
    attempted = sum(record["attempted"] for record in rounds)
    failed = sum(record["failed"] for record in rounds)
    result: Dict[str, Any] = {
        "workload": raw["workload"], "seed": raw["seed"], "ops": raw["ops"],
        "rounds": len(raw["untraced"]), "traced_rounds": len(raw["traced"]),
        "disturbed_runs": raw["disturbed_runs"],
        "attempted": attempted, "failed": failed,
        "end_to_end": {}, "per_layer": {},
    }
    if any("crashed" in record for record in rounds):
        result["failed"] = result["attempted"] = max(attempted, 1)
        result["problems"] = problems
        return result

    untraced = raw["untraced"]
    e2e = result["end_to_end"]
    e2e["ops_per_host_s"] = spread(
        [record["attempted"] / record["ref_s"] for record in untraced])
    e2e["setup_s"] = spread([record["setup_s"] for record in untraced])
    e2e["peak_rss_mb"] = spread(
        [record["peak_rss_mb"] for record in untraced])
    result["fail_share"] = failed / attempted
    result["vlat_max_ns"] = _exact(
        rounds, lambda record: record["vlat_max_ns"], "vlat_max_ns", problems)
    result["timed_s"] = spread([record["timed_s"] for record in untraced])
    result["speed"] = spread([record["ref_s"] / record["timed_s"]
                              for record in untraced])

    if raw["traced"]:
        import probes
        layer = result["per_layer"]
        traced = raw["traced"]
        exact = set(probes.COUNTERS) | set(probes.DERIVED)
        exact -= {"trace.root_ms", "trace.unattributed_share"}
        for name, _, _ in probes.fold_metric_specs():
            read = (lambda record, key=name: record["layers"][key])
            if name in exact or name.endswith(".calls"):
                layer[name] = _exact(traced, read, name, problems)
            elif name.endswith("_ms"):
                layer[name] = statistics.median(
                    read(record) * record["ref_s"] / record["timed_s"]
                    for record in traced)
            else:
                layer[name] = statistics.median(map(read, traced))
        for name in probes.OUTCOME_COUNTERS:
            layer[name] = _exact(
                rounds, lambda record, key=name:
                record["counters"].get(key, 0), name, problems)
        layer["sim.vlat_max_ns"] = result["vlat_max_ns"]
        layer["host.ops_per_wall_s"] = statistics.median(
            record["attempted"] / record["timed_s"] for record in untraced)
        layer["host.speed"] = result["speed"]["median"]
        layer["host.cpu_over_wall"] = statistics.median(
            record["cpu_over_wall"] for record in untraced)
        layer["host.gc_gen2_collections"] = statistics.median(
            record["gc_gen2_collections"] for record in untraced)
        layer["host.disturbed_runs"] = raw["disturbed_runs"]
        layer["trace.overhead_ratio"] = \
            statistics.median(record["ref_s"] for record in traced) \
            / statistics.median(record["ref_s"] for record in untraced)
    if problems and not failed:
        # A functional check outside the per-op tally (exactness across
        # rounds) failed: every op is suspect.
        result["failed"] = attempted
    result["problems"] = problems
    return result


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in the order
    BENCHMARK.json lists them."""
    import probes
    specs = probes.fold_metric_specs()
    specs += [(name, unit, better) for name, (unit, better)
              in probes.OUTCOME_COUNTERS.items()]
    specs += [("sim.vlat_max_ns", "vns", "lower"),
              ("host.ops_per_wall_s", "ops/s", "higher"),
              ("host.speed", "ratio", "higher"),
              ("host.cpu_over_wall", "ratio", "higher"),
              ("host.gc_gen2_collections", "count", "lower"),
              ("host.disturbed_runs", "count", "lower"),
              ("trace.overhead_ratio", "ratio", "lower")]
    return specs


def contract_line(result: Dict[str, Any], trace: bool) -> str:
    """The one-line JSON result the benchmark driver reads."""
    if trace:
        metrics = {name: {"value": result["per_layer"].get(name, 0),
                          "unit": unit}
                   for name, unit, _ in per_layer_specs()}
    else:
        metrics = {name: {"value": result["end_to_end"][name]["median"]
                          if name in result["end_to_end"] else 0,
                          "unit": unit}
                   for name, unit, _ in END_TO_END}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_result(result: Dict[str, Any], out=sys.stdout) -> None:
    """Every metric by name, with its unit."""
    workload = workloads.WORKLOADS[result["workload"]]
    print(f"\n== {workload.name}  ({result['ops']} {workload.op_unit}s per "
          f"round, seed {result['seed']}, {result['rounds']} untraced + "
          f"{result['traced_rounds']} traced rounds, "
          f"disturbed_runs {result['disturbed_runs']}) ==", file=out)
    for problem in result.get("problems", []):
        print(f"  PROBLEM: {problem}", file=out)
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, stats in result["end_to_end"].items():
        print(f"  {name:<18} {stats['median']:>14.4f} {units[name]:<6} "
              f"[q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, "
              f"n={stats['n']}]", file=out)
    if "fail_share" in result:
        print(f"  {'fail_share':<18} {result['fail_share']:>14.6f} "
              f"{'ratio':<6} [{result['failed']} of {result['attempted']} "
              f"{workload.op_unit}s]", file=out)
        print(f"  {'vlat_max_ns':<18} {result['vlat_max_ns']:>14d} "
              f"{'vns':<6} [virtual; identical in every round]", file=out)
    layer = result["per_layer"]
    if not layer:
        return
    import probes
    root_ms = layer["trace.root_ms"]
    print(f"  {'layer':<20} {'calls':>10} {'self_ms':>12} {'self_share':>10}",
          file=out)
    for name in probes.LAYERS:
        self_ms = layer[f"{name}.self_ms"]
        print(f"  {name:<20} {layer[f'{name}.calls']:>10d} {self_ms:>12.3f} "
              f"{self_ms / root_ms:>10.3f}", file=out)
    listed = {f"{name}.{part}" for name in probes.LAYERS
              for part in ("calls", "self_ms")}
    for name, unit, _ in per_layer_specs():
        if name not in listed:
            print(f"  {name:<42} {layer[name]:>16.6g} {unit}", file=out)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _git_head() -> str:
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: Optional[List[str]] = None, spawn: Spawn = spawn_round) -> int:
    parser = argparse.ArgumentParser(
        description="hostbench: host-time benchmark of the simulator")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only input knob that reaches the program")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds one measurement spends on rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer (traced "
                             "rounds beside untraced ones); default both")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizing: ops/50, one round each")
    parser.add_argument("--out", metavar="PATH",
                        help="write the numbers as a set for compare.py")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("hostbench: no src/repro beside hostbench/ — nothing to "
              "measure", file=sys.stderr)
        return 2
    # Same bytecode for every round: compile once, up front.
    import compileall
    compileall.compile_dir(os.path.join(ROOT, "src", "repro"), quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        raw = measure(workload, args.seed, args.seconds, bool(args.trace),
                      args.smoke, spawn)
        if args.trace is None:
            # Both: a full untraced measurement, then one that
            # alternates; every untraced round counts end to end.
            more = measure(workload, args.seed, args.seconds, True,
                           args.smoke, spawn)
            raw["untraced"] += more["untraced"]
            raw["traced"] = more["traced"]
            raw["disturbed_runs"] += more["disturbed_runs"]
        results[name] = reduce_rounds(raw)
        print_result(results[name])

    failed = sum(result["failed"] for result in results.values())
    if args.out and not args.smoke:
        payload = {
            "schema": "hostbench-set/1",
            "meta": {"nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "git_head": _git_head(), "seed": args.seed,
                     "seconds": args.seconds,
                     "ops": {name: results[name]["ops"] for name in results}},
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload and args.trace is not None:
        print(contract_line(results[args.workload], bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
