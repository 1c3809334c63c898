"""The ``python -m repro trace`` entry point.

    python -m repro trace fig6              # run + write TRACE_fig6.jsonl
    python -m repro trace fig6 --quick      # smaller workload (CI smoke)
    python -m repro trace faults --check    # validate the JSONL afterwards
    python -m repro trace fig7 --out t.jsonl
    python -m repro trace fig6 --record     # the stream goes in the log

Runs the experiment's *semantic companion* (its ``trace`` row in
:data:`repro.scenarios.SCENARIOS`) with the run log's writer in both the
tracer and the spans slot, writes the one correlated ``repro-run/1``
JSONL log, and prints an event/metric summary — plus a forensics summary
for every divergence the run hit.  The schema is documented in
``docs/observability.md``.  ``--record`` puts the writer in the
recorder slot too, so the log also carries the leader's syscall stream,
which ``python -m repro replay`` can re-drive offline — see
``docs/replay.md``.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.obs.forensics import summary
from repro.obs.trace import RUN_SCHEMA, Tracer, validate_file
from repro.scenarios import SCENARIOS, run_cell
from repro.sites import observing


def configure(parser) -> None:
    parser.description = ("Run an experiment's semantic companion under "
                          "the run log and write it as structured JSONL.")
    parser.add_argument("experiment", choices=sorted(SCENARIOS["trace"]),
                        help="which experiment's companion scenario to run")
    cli.add_report_path(parser, "--out", "TRACE_<experiment>.jsonl")
    cli.add_shared(parser, "quick", "check")
    parser.add_argument("--record", action="store_true",
                        help="also record the leader's syscall stream "
                             "into the log (replay it with 'python -m "
                             "repro replay LOG')")


def run(args) -> int:
    tracer = Tracer(experiment=args.experiment)
    with observing(tracer=tracer, spans=tracer,
                   recorder=tracer if args.record else None):
        run_cell("trace", args.experiment, quick=args.quick)
    out = args.out or f"TRACE_{args.experiment}.jsonl"
    tracer.write(out)

    print(f"repro trace {args.experiment}: {tracer.event_count} events "
          f"-> {out}")
    tally = tracer.kind_tally()
    print(format_table(
        ["event kind", "count"],
        [[kind, tally[kind]] for kind in sorted(tally)]))
    snapshot = tracer.metrics()
    if snapshot:
        print()
        print(format_table(
            ["metric", "value"],
            [[name, " ".join(f"{key}={value}"
                             for key, value in sorted(metric.items()))]
             for name, metric in snapshot.items()]))
    bundles = (event.fields["bundle"] for event in tracer.events
               if event.kind == "divergence.forensics")
    for index, bundle in enumerate(bundles):
        print()
        print(f"forensics bundle {index}:")
        print(summary(bundle))

    if args.check:
        return cli.check_verdict(validate_file(out), out, RUN_SCHEMA)
    return 0
