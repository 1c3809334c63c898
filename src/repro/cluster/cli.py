"""``python -m repro fleet`` — run a fleet canary-upgrade scenario.

    python -m repro fleet canary-kvstore                # 3×3 fleet
    python -m repro fleet canary-kvstore --shards 2 --replicas 2
    python -m repro fleet canary-kvstore --seed 7 --report out.json
    python -m repro fleet canary-kvstore --slo          # + SLO accounting

The report is JSON with schema ``repro-fleet/1`` (see
``docs/cluster.md``); stdout carries the topology, the per-round table,
and the invariant verdict.  Exit status is 1 when any fleet
invariant is violated or the written report fails its own schema
validation — the CI ``fleet-smoke`` job gates on exactly that.

``--slo`` runs the scenario under a span collector, embeds a full
``repro-slo/1`` section (see ``docs/observability.md``) under the
report's ``slo`` key, and adds per-round SLO availability columns to
the round table — requests whose gateway span overlaps the round, and
the fraction of them that got an answer.  Without the flag the report
is byte-identical to earlier releases.

``--openloop`` swaps the fixed 100 ms command pacing for the open-loop
generator's Poisson arrivals and Zipf-popular keys (see
``docs/workloads.md``).  Combined with ``--slo``, the per-round
availability column switches to *achieved* accounting: the denominator
is every request offered (sent) during the round window, and only
requests that actually completed with an answer count as available —
a request stalled behind an upgrade pause is not.

``--distributed`` houses each MVE follower on the shard's next replica
node (see ``docs/distributed.md``): every pair's ring crosses a
declared link as ``repro-ring/1`` frames, and the report grows a
``distring`` section (link budget, pair placement, wire telemetry).
Without the flag the report is byte-identical to earlier releases.
"""

from __future__ import annotations

from repro import cli
from repro.bench.reporting import format_table
from repro.cluster.fleet import (fleet_spec, run_fleet_scenario,
                                 validate_report)
from repro.sites import observing


def configure(parser) -> None:
    parser.description = ("Canary-staged Mvedsua upgrades across a "
                          "sharded, replicated fleet.")
    parser.add_argument("scenario", choices=["canary-kvstore"],
                        help="which fleet scenario to run")
    cli.add_shared(parser, "seed")
    parser.add_argument("--shards", type=cli.positive_int, default=3,
                        help="shard count (default: %(default)s)")
    parser.add_argument("--replicas", type=cli.positive_int, default=3,
                        help="replicas per shard (default: %(default)s)")
    cli.add_report_path(parser, "--report", "FLEET_kvstore.json")
    parser.add_argument("--slo", action="store_true",
                        help="trace the run with spans, embed a "
                             "repro-slo/1 section under the report's "
                             "'slo' key, and add per-round SLO "
                             "availability columns")
    parser.add_argument("--openloop", action="store_true",
                        help="drive rounds from the open-loop "
                             "generator (Poisson arrivals, Zipf keys); "
                             "with --slo, round availability counts "
                             "achieved completions, not offered "
                             "requests")
    parser.add_argument("--distributed", action="store_true",
                        help="house each MVE follower on the shard's "
                             "next replica node: the pair's ring "
                             "crosses a declared link as repro-ring/1 "
                             "frames, and the report grows a "
                             "'distring' wire-telemetry section")


def run(args) -> int:
    unusable = fleet_spec(args.shards, args.replicas,
                          distributed=args.distributed).problems()
    if unusable:
        raise cli.UsageError("unusable fleet topology: "
                             + "; ".join(unusable))

    collector = None
    if args.slo:
        from repro.obs.trace import Tracer
        collector = Tracer()
    with observing(spans=collector):
        report = run_fleet_scenario(args.scenario, args.seed,
                                    shards=args.shards,
                                    replicas=args.replicas,
                                    openloop=args.openloop,
                                    distributed=args.distributed)
    if collector is not None:
        from repro.obs.slo import build_slo_report, collect_cell
        from repro.obs.slo_scenarios import SLO_SPECS
        spec = SLO_SPECS[args.scenario]
        cell = collect_cell(collector, args.scenario, spec)
        report["slo"] = build_slo_report(args.scenario, args.seed,
                                         spec, [cell])

    topology = report["topology"]
    print(f"fleet scenario: {args.scenario} "
          f"({topology['shards']} shards x "
          f"{topology['replicas_per_shard']} replicas, "
          f"seed {report['seed']})")
    if args.openloop:
        traffic = report["traffic"]
        print(f"traffic: open-loop ({traffic['process']} "
              f"@ {traffic['rate_per_sec']:g}/s, "
              f"{traffic['key_distribution']} keys)")
    if args.distributed:
        link = report["distring"]["link"]
        print(f"ring: distributed (follower on next replica, "
              f"{link['latency_ns']} ns one-way, window "
              f"{link['window']})")
    print()
    headers = ["round", "outcome", "updated", "demoted"]
    if args.slo:
        headers += ["requests", "slo avail"]
    rows = []
    for round_payload in report["rounds"]:
        row = [round_payload["label"], round_payload["outcome"],
               str(round_payload["updated"]),
               str(round_payload["demotions"])]
        if args.slo:
            total, answered = _round_availability(
                collector, round_payload["started_at"],
                round_payload["finished_at"],
                achieved=args.openloop)
            row += [str(total),
                    f"{answered / total:.4f}" if total else "-"]
        rows.append(row)
    print(format_table(headers, rows))
    print()
    print(f"max MVE pairs per shard: "
          f"{report['max_mve_pairs_per_shard']}  "
          f"rollbacks: {report['rollbacks']}  "
          f"failovers: {report['failovers']}")
    if args.distributed:
        wire = report["distring"]["wire"]
        print(f"wire: {wire['frames_sent']} frames / "
              f"{wire['bytes_sent']} bytes, inflight high watermark "
              f"{wire['inflight_high_watermark']}, "
              f"resyncs {wire['resyncs']}, partition timeouts "
              f"{wire['partition_timeouts']}")
    violations = report["invariants"]["problems"]
    if violations:
        for violation in violations:
            print(f"  VIOLATION: {violation}")
    else:
        print(f"invariants: clean over "
              f"{report['invariants']['checked_observations']} "
              f"observations")

    if args.slo:
        from repro.obs.slo_cli import render_report
        slo = report["slo"]
        print()
        print(f"slo ({slo['spec']['name']}): {slo['requests']} requests, "
              f"{slo['violating_requests']} over budget, "
              f"availability {slo['availability']:.4f}")
        print(render_report(slo))

    suffix = args.scenario.split("-")[-1]
    path = args.report or f"FLEET_{suffix}.json"
    cli.write_json(path, report, indent=2, sort_keys=True)
    print(f"\nwrote report: {path}")

    problems = validate_report(report)
    if args.slo:
        from repro.obs.slo import validate_slo_report
        problems += [f"slo: {p}"
                     for p in validate_slo_report(report["slo"])]
    malformed = cli.fail(problems, "report problem")
    return 1 if violations or malformed else 0


def _round_availability(collector, start: int, finish: int, *,
                        achieved: bool = False):
    """(requests, answered) for gateway spans overlapping a round.

    A request counts toward a round when its span intersects the
    round's ``[started_at, finished_at]`` window — that is exactly the
    population whose latency the round's quiesce pauses can touch.

    ``achieved=True`` is the open-loop variant: the denominator is
    every request *offered* (span started) inside the window, and only
    spans that actually closed with an answer count — so a request the
    round's pause left stalled drags availability down instead of
    silently inflating the overlap set.
    """
    total = answered = 0
    for span in collector.request_spans():
        if achieved:
            if span.start_ns < start or span.start_ns > finish:
                continue
            total += 1
            if span.end_ns is not None \
                    and span.attrs.get("answered", True) \
                    and not span.attrs.get("error"):
                answered += 1
            continue
        end = span.end_ns if span.end_ns is not None else span.start_ns
        if end < start or span.start_ns > finish:
            continue
        total += 1
        if span.attrs.get("answered", True) and not span.attrs.get("error"):
            answered += 1
    return total, answered
