"""``python -m repro replay`` — re-drive a version against a recording.

    python -m repro replay STREAM                       # recorded version
    python -m repro replay STREAM --against 2.0-buggy   # shadow test
    python -m repro replay STREAM --json                # report to stdout
    python -m repro replay STREAM --out REPLAY.json     # report to a file
    python -m repro replay STREAM --validate            # check the artifact

Exit status: 0 when the candidate matched the recording end to end,
1 on divergence or crash (the shadow-testing gate), 2 on a malformed
stream or an unknown app/version.  See ``docs/replay.md``.
"""

from __future__ import annotations

import json
import sys

from repro import cli
from repro.errors import NoUpdatePath
from repro.replay.engine import replay_stream
from repro.replay.stream import StreamError, read_stream, validate_stream_file


def configure(parser) -> None:
    parser.description = ("Replay a candidate version against a recorded "
                          "syscall stream (repro-stream/1).")
    parser.add_argument("stream", metavar="STREAM",
                        help="path to a recorded stream artifact")
    parser.add_argument("--against", metavar="VERSION",
                        help="candidate version to re-drive (default: the "
                             "version the stream was recorded from)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the replay report as JSON")
    cli.add_report_path(parser, "--out", None)
    parser.add_argument("--validate", action="store_true",
                        help="only validate the stream artifact and exit")


def run(args) -> int:
    if args.validate:
        if cli.fail(validate_stream_file(args.stream), "invalid stream"):
            return 2
        print(f"{args.stream}: valid repro-stream/1")
        return 0

    try:
        report = replay_stream(read_stream(args.stream),
                               against=args.against)
    except (StreamError, NoUpdatePath) as exc:
        # Unreadable stream; an app or version label the catalog lacks.
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2

    payload = report.as_dict()
    if args.out:
        cli.write_json(args.out, payload, indent=2, sort_keys=True)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"stream   : {args.stream}")
        print(f"app      : {report.app} scenario={report.scenario!r}")
        print(f"recorded : {report.recorded_version} "
              f"(final leader {report.final_version_recorded})")
        print(f"against  : {report.against}")
        print(f"replayed : {report.iterations_replayed}/{report.iterations} "
              f"iterations, {report.records_replayed} records, "
              f"{report.rules_fired} rules fired")
        if report.ok:
            print("outcome  : match (zero divergences)")
        else:
            detail = report.divergence or {}
            print(f"outcome  : {report.outcome} at iteration "
                  f"{detail.get('iteration')} "
                  f"(t={detail.get('at')} ns, recorded leader "
                  f"{detail.get('recorded_leader')})")
            print(f"           {detail.get('detail')}")
            if report.forensics is not None:
                bundle = report.forensics
                print(f"forensics: {len(bundle.ring_last_k)} ring records, "
                      f"{len(bundle.expected_records)} expected / "
                      f"{len(bundle.issued_records)} issued, "
                      f"rules fired {list(bundle.rules_fired)}")
        if args.out:
            print(f"wrote report: {args.out}")
    return 0 if report.ok else 1
