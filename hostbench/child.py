"""One hostbench round: set up a workload, time its slices, report.

Run by ``run.py`` as a fresh single-threaded subprocess per round, so
every round pays interpreter start, imports and set-up from scratch and
no round inherits another's heap.  Prints one JSON object on the last
line of stdout.

The timed region is the workload's slices (each ``next()`` on its
generator), summed; the calibration kernel runs between slices and is
not part of it.  ``timed_s`` is the wall time as measured, ``ref_s``
the same slices at reference speed.

``--t0`` is the parent's ``time.perf_counter()`` just before it spawned
this process; on Linux that clock is system-wide, so the difference to
this process's own reading when set-up is done is the set-up time a
user waits for: interpreter, ``import repro…``, building
kernels/servers/rule catalogues, preloading stores, generating the
command list (``setup_wall_s``; the kernel run at entry is taken out).
``setup_s`` is the same at reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Iterations of the calibration kernel, and the seconds they take on
#: the reference box (2-core Xeon 2.1 GHz VM, Python 3.11) at its usual
#: speed.
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.04


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes right now.

    The reference box's speed wanders by tens of percent within seconds
    (same seed, same bytecode, CPU/wall 0.98 throughout: a shared host,
    not descheduling), which would drown any bound we could set.  The
    kernel does what the simulator's hot paths do — small bytes and
    tuple objects, dict stores and loads, integer arithmetic — so its
    time tracks the host's speed.  Running it between the slices of a
    workload lets every slice be stated in reference-speed seconds;
    sampling only before and after a 3 s region was measured to remove
    almost none of the spread, sampling every ~0.2 s two thirds of it.
    """
    table = {}
    total = 0
    start = time.perf_counter()
    for index in range(CALIBRATION_LOOPS):
        key = b"k%d" % (index & 1023)
        table[key] = (index, key)
        value = table.get(key)
        total += len(value[1]) + index % 7
        if (key + b"\r\n").endswith(b"\r\n"):
            total += 1
    return time.perf_counter() - start


def run_round(name: str, seed: int, ops: int, trace: bool,
              t0: float) -> dict:
    """Build, time and check one workload round in this process."""
    import workloads

    first = calibrate()
    thunk = workloads.WORKLOADS[name].build(seed, ops)
    recorder = None
    if trace:
        # Untraced rounds never import the probes.
        import probes
        recorder = probes.Recorder()
        recorder.install()
    setup_wall_s = time.perf_counter() - t0 - first
    timed_s = ref_s = cpu_s = 0.0
    slices = 0
    try:
        gc.collect()
        gen2_before = gc.get_stats()[2]["collections"]
        steps = thunk()
        outcome = None
        finished = False
        before = calibrate()
        # Set-up at reference speed, from the kernel runs at either end.
        setup_s = setup_wall_s * CALIBRATION_REF_S / ((first + before) / 2)
        while not finished:
            cpu_start = time.process_time()
            start = time.perf_counter()
            if recorder is not None:
                recorder.start()
            try:
                next(steps)
            except StopIteration as stop:
                outcome, finished = stop.value, True
            if recorder is not None:
                recorder.stop()
            wall = time.perf_counter() - start
            cpu_s += time.process_time() - cpu_start
            after = calibrate()
            timed_s += wall
            # The slice's wall time at the speed the host ran at around
            # it, expressed at reference speed.
            ref_s += wall * CALIBRATION_REF_S / ((before + after) / 2)
            before = after
            slices += 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    record = {
        "workload": name, "seed": seed, "ops": ops, "trace": trace,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "timed_s": timed_s,
        "ref_s": ref_s,
        "slices": slices,
        "cpu_over_wall": cpu_s / timed_s,
        "gc_gen2_collections":
            gc.get_stats()[2]["collections"] - gen2_before,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "vlat_max_ns": outcome.vlat_max_ns,
        "counters": outcome.counters,
    }
    if recorder is not None:
        record["layers"] = recorder.fold(outcome.attempted)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    record = run_round(args.workload, args.seed, args.ops, bool(args.trace),
                       args.t0)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
