"""Command-line entry point: run any experiment from the shell.

    python -m repro table1        # Vsftpd rules per update pair
    python -m repro table2        # steady-state overhead matrix
    python -m repro fig6          # throughput through update stages
    python -m repro fig7          # pause vs ring-buffer size
    python -m repro faults        # §6.2 fault-tolerance experiments
    python -m repro ablations     # upgrade strategies, TTST, comparators
    python -m repro cluster       # rolling-upgrade ablation
    python -m repro all           # everything above, in order
    python -m repro experiments   # emit EXPERIMENTS.md to stdout
    python -m repro lint          # mvelint: static rule/transformer checks
    python -m repro prove kvstore # MVE8xx divergence prover + certificate
    python -m repro perf          # wall-clock benchmark of the simulator
    python -m repro trace fig6    # traced semantic companion run
    python -m repro chaos kvstore # fault-injection campaign + invariants
    python -m repro fleet canary-kvstore  # sharded fleet canary upgrade
    python -m repro replay STREAM # re-drive a version against a recording
    python -m repro slo fig7      # span-traced SLO report + attributions
    python -m repro openloop kvstore  # open-loop load vs upgrade waves

``lint`` takes its own flags (``--json``, ``--app APP``,
``--catalog PATH``); see ``docs/linting.md``.  ``perf`` does too
(``--quick``, ``--json``, ``--scenario NAME``, ``--repeat K``,
``--workers N``, ``--diff BASELINE``); it measures how fast the
simulator itself runs and writes the ``BENCH_perf.json`` trajectory
file — see ``docs/performance.md``.
``trace`` runs an experiment's semantic companion with the structured
tracer installed and writes a JSONL trace (``--quick``, ``--out PATH``,
``--check``) — see ``docs/observability.md``.  Any experiment also
accepts ``--trace PATH`` to run with the tracer installed and write the
trace afterwards; the experiment's stdout is unchanged (tracing is
passive).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import ablations, cluster_bench, experiments_md, faults, fig6, fig7, table1, table2

_COMMANDS = {
    "table1": table1.main,
    "table2": table2.main,
    "fig6": fig6.main,
    "fig7": fig7.main,
    "faults": faults.main,
    "ablations": ablations.main,
    "cluster": cluster_bench.main,
    "experiments": experiments_md.main,
}


def main(argv=None) -> int:
    """Run one command; a path it cannot read or write is a usage
    error (one ``error:`` line, exit 2), not a traceback."""
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(argv) -> int:
    if argv and argv[0] == "lint":
        # mvelint has its own flags; dispatch before experiment parsing.
        from repro.analysis.cli import lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "prove":
        # the MVE8xx divergence prover has its own flags too.
        from repro.analysis.prover import prove_main
        return prove_main(argv[1:])
    if argv and argv[0] == "perf":
        # the perf harness has its own flags too.
        from repro.perf.cli import perf_main
        return perf_main(argv[1:])
    if argv and argv[0] == "trace":
        # so does the tracer.
        from repro.obs.cli import trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        # and the chaos campaign runner.
        from repro.chaos.cli import chaos_main
        return chaos_main(argv[1:])
    if argv and argv[0] == "fleet":
        # and the fleet orchestrator.
        from repro.cluster.cli import fleet_main
        return fleet_main(argv[1:])
    if argv and argv[0] == "replay":
        # and the stream replayer.
        from repro.replay.cli import replay_main
        return replay_main(argv[1:])
    if argv and argv[0] == "slo":
        # and the span-traced SLO engine.
        from repro.obs.slo_cli import slo_main
        return slo_main(argv[1:])
    if argv and argv[0] == "openloop":
        # and the open-loop workload engine.
        from repro.workloads.openloop_cli import openloop_main
        return openloop_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the MVEDSUA (ASPLOS 2019) evaluation.")
    parser.add_argument("experiment",
                        choices=sorted(_COMMANDS) + ["all", "chaos",
                                                     "fleet", "lint",
                                                     "openloop", "perf",
                                                     "prove", "replay",
                                                     "slo", "trace"],
                        help="which experiment to run ('lint' runs the "
                             "mvelint static analyzers; 'prove' the "
                             "MVE8xx divergence prover; 'perf' the "
                             "wall-clock benchmark harness; 'trace' a "
                             "traced semantic companion; 'chaos' a "
                             "fault-injection campaign; 'fleet' a "
                             "sharded canary upgrade; 'replay' re-drives "
                             "a version against a recorded stream; 'slo' "
                             "a span-traced SLO report; 'openloop' the "
                             "open-loop workload engine)")
    parser.add_argument("--trace", metavar="PATH", dest="trace_path",
                        help="run with the structured tracer installed "
                             "and write a JSONL trace to PATH afterwards")
    args = parser.parse_args(argv)
    names = (("table1", "table2", "fig6", "fig7", "faults",
              "ablations", "cluster")
             if args.experiment == "all" else (args.experiment,))

    tracer = None
    if args.trace_path:
        from repro.obs.trace import Tracer, install_tracer
        tracer = install_tracer(Tracer(experiment=args.experiment))
    try:
        for name in names:
            if args.experiment == "all":
                print(f"\n{'=' * 72}\n")
            _COMMANDS[name]()
    finally:
        if tracer is not None:
            from repro.obs.trace import uninstall_tracer
            uninstall_tracer()
            tracer.write_jsonl(args.trace_path)
            print(f"\nwrote trace: {args.trace_path} "
                  f"({len(tracer.events)} events)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
