"""The ``python -m repro trace`` entry point.

    python -m repro trace fig6              # run + write TRACE_fig6.jsonl
    python -m repro trace fig6 --quick      # smaller workload (CI smoke)
    python -m repro trace faults --check    # validate the JSONL afterwards
    python -m repro trace fig7 --out t.jsonl
    python -m repro trace fig6 --record STREAM_fig6.jsonl

Runs the experiment's *semantic companion* (its ``trace`` row in
:data:`repro.scenarios.SCENARIOS`) with a tracer installed, writes the
JSONL trace, and prints an event/metric summary — plus a forensics summary
for every divergence the run hit.  The trace schema is documented in
``docs/observability.md``.  ``--record`` additionally captures the
leader's syscall stream as a ``repro-stream/1`` artifact that
``python -m repro replay`` can re-drive offline — see
``docs/replay.md``.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.obs.trace import TRACE_SCHEMA, Tracer, validate_trace_file
from repro.replay.recorder import StreamRecorder
from repro.scenarios import SCENARIOS, run_cell
from repro.sites import observing


def configure(parser) -> None:
    parser.description = ("Run an experiment's semantic companion under "
                          "the tracer and write a structured JSONL trace.")
    parser.add_argument("experiment", choices=sorted(SCENARIOS["trace"]),
                        help="which experiment's companion scenario to run")
    cli.add_report_path(parser, "--out", "TRACE_<experiment>.jsonl")
    cli.add_shared(parser, "quick", "check")
    parser.add_argument("--record", metavar="PATH",
                        help="also record the leader's syscall stream as "
                             "a repro-stream/1 artifact at PATH (replay "
                             "it with 'python -m repro replay PATH')")


def run(args) -> int:
    recorder = (StreamRecorder(scenario=args.experiment)
                if args.record else None)
    tracer = Tracer(experiment=args.experiment)
    with observing(tracer=tracer, recorder=recorder):
        run_cell("trace", args.experiment, quick=args.quick)
    if recorder is not None:
        recorder.write(args.record)
    out = args.out or f"TRACE_{args.experiment}.jsonl"
    tracer.write_jsonl(out)

    print(f"repro trace {args.experiment}: {tracer.event_count} events "
          f"-> {out}")
    if recorder is not None:
        print(f"wrote stream: {args.record} "
              f"({recorder.iterations} iterations)")
    tally = tracer.kind_tally()
    print(format_table(
        ["event kind", "count"],
        [[kind, tally[kind]] for kind in sorted(tally)]))
    snapshot = tracer.metrics.snapshot()
    if snapshot:
        print()
        print(format_table(
            ["metric", "value"],
            [[name, _render_metric(value)]
             for name, value in snapshot.items()]))
    for index, bundle in enumerate(tracer.forensics):
        print()
        print(f"forensics bundle {index}:")
        print(bundle.summary())

    if args.check:
        return cli.check_verdict(validate_trace_file(out), out, TRACE_SCHEMA)
    return 0


def _render_metric(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in sorted(value.items()))
    return str(value)
