"""The paper-experiment commands: ``python -m repro table1`` …
``cluster``, ``all`` and ``experiments``.

    python -m repro fig7                    # one experiment
    python -m repro all                     # the seven, in paper order
    python -m repro fig7 --trace t.jsonl    # + a repro-trace/1 JSONL

``--trace PATH`` runs with the structured tracer installed and writes
the trace afterwards; the experiment's stdout is unchanged (tracing is
passive, and the ``wrote trace:`` note goes to stderr).
"""

from __future__ import annotations

import sys

from repro.bench import (ablations, cluster_bench, experiments_md, faults,
                         fig6, fig7, table1, table2)
from repro.sites import observing

#: command -> the experiment's ``main()``; ``all`` runs every entry
#: but ``experiments``, in this order.
EXPERIMENTS = {
    "table1": table1.main,
    "table2": table2.main,
    "fig6": fig6.main,
    "fig7": fig7.main,
    "faults": faults.main,
    "ablations": ablations.main,
    "cluster": cluster_bench.main,
    "experiments": experiments_md.main,
}


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
        with observing(tracer=tracer):
            for name in names:
                if args.command == "all":
                    print(f"\n{'=' * 72}\n")
                EXPERIMENTS[name]()
    finally:
        if tracer is not None:
            tracer.write_jsonl(args.trace_path)
            print(f"\nwrote trace: {args.trace_path} "
                  f"({tracer.event_count} events)", file=sys.stderr)
    return 0
