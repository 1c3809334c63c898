"""The paper-experiment commands: ``python -m repro table1`` …
``cluster``, ``all`` and ``experiments``.

    python -m repro fig7                    # one experiment
    python -m repro all                     # the seven, in paper order
    python -m repro fig7 --trace t.jsonl    # + a repro-run/1 JSONL log

``--trace PATH`` runs with the run log's writer in both the tracer and
the spans slot and writes the one correlated log afterwards; the
experiment's stdout is unchanged (tracing is passive, and the ``wrote
trace:`` note goes to stderr).
"""

from __future__ import annotations

import functools
import sys

from repro.sites import observing


def _main(name: str) -> None:
    """Run experiment ``name``, importing its module alone: ``table2``
    needs the fluid model, not the MVE stack ``table1`` drives."""
    if name == "table1":
        from repro.bench import table1 as experiment
    elif name == "table2":
        from repro.bench import table2 as experiment
    elif name == "fig6":
        from repro.bench import fig6 as experiment
    elif name == "fig7":
        from repro.bench import fig7 as experiment
    elif name == "faults":
        from repro.bench import faults as experiment
    elif name == "ablations":
        from repro.bench import ablations as experiment
    elif name == "cluster":
        from repro.bench import cluster_bench as experiment
    else:
        from repro.bench import experiments_md as experiment
    experiment.main()


#: command -> the experiment's ``main()``; ``all`` runs every entry
#: but ``experiments``, in this order.
EXPERIMENTS = {name: functools.partial(_main, name) for name in (
    "table1", "table2", "fig6", "fig7", "faults", "ablations", "cluster",
    "experiments")}


def configure(parser) -> None:
    parser.description = ("Reproduce one table or figure of the MVEDSUA "
                          "(ASPLOS 2019) evaluation.")
    parser.add_argument("--trace", metavar="PATH", dest="trace_path",
                        help="run with the structured tracer installed "
                             "and write a JSONL trace to PATH afterwards")


def run(args) -> int:
    names = ([name for name in EXPERIMENTS if name != "experiments"]
             if args.command == "all" else [args.command])
    tracer = None
    if args.trace_path:
        from repro.obs.trace import Tracer
        tracer = Tracer(experiment=args.command)
    try:
        with observing(tracer=tracer, spans=tracer):
            for name in names:
                if args.command == "all":
                    print(f"\n{'=' * 72}\n")
                EXPERIMENTS[name]()
    finally:
        if tracer is not None:
            tracer.write(args.trace_path)
            print(f"\nwrote trace: {args.trace_path} "
                  f"({tracer.event_count} events)", file=sys.stderr)
    return 0
