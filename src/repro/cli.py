"""The command-line spine: every ``python -m repro …`` command.

    python -m repro table1        # Vsftpd rules per update pair
    python -m repro table2        # steady-state overhead matrix
    python -m repro fig6          # throughput through update stages
    python -m repro fig7          # pause vs ring-buffer size
    python -m repro faults        # §6.2 fault-tolerance experiments
    python -m repro ablations     # upgrade strategies, TTST, comparators
    python -m repro cluster       # rolling-upgrade ablation
    python -m repro all           # everything above, in order
    python -m repro experiments   # emit EXPERIMENTS.md to stdout
    python -m repro claims        # every paper claim, measured and gated
    python -m repro lint          # mvelint: static rule/transformer checks
    python -m repro prove kvstore # MVE8xx divergence prover + certificate
    python -m repro perf          # deterministic gauge gate (hot paths)
    python -m repro trace fig6    # traced semantic companion run
    python -m repro chaos kvstore # fault-injection campaign + invariants
    python -m repro fleet canary-kvstore  # sharded fleet canary upgrade
    python -m repro replay STREAM # re-drive a version against a recording
    python -m repro slo fig7      # span-traced SLO report + attributions
    python -m repro openloop kvstore  # open-loop load vs upgrade waves
    python -m repro --help        # this list; COMMAND --help for its flags

:data:`COMMANDS` is the one table of commands.  Each names a module
that holds only what is unique to the command: ``configure(parser)``
adds its flags, ``run(args) -> int`` does the work and renders it.
Everything commands have in common lives here and exists once: the
parser and its usage errors, the options several commands take
(``--seed``, ``--quick``, ``--workers``, ``--check``, ``--catalog`` and
the report path, spelled ``--out`` or ``--report``) with argparse
``type=`` functions that reject out-of-range values before any work is
done, the report writer, and the exit policy:

* **0** — the command ran and found nothing wrong;
* **1** — a finding or a failed gate: a lint ERROR, an invariant
  violation, a replay divergence, a report that fails its own schema
  under ``--check``, a ``perf --diff`` gauge drift, a claim out of band;
* **2** — a usage error or unusable input: an unknown command or flag,
  an out-of-range value, a path that cannot be read or written, a
  malformed stream or baseline, an analyzer crash.

See ``docs/architecture.md`` ("Command-line contract").
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.parallel import resolve_workers

#: command -> the module holding its ``configure``/``run`` (imported
#: only when the command runs).
COMMANDS: Dict[str, str] = {
    **dict.fromkeys(("table1", "table2", "fig6", "fig7", "faults",
                     "ablations", "cluster", "all", "experiments"),
                    "repro.bench.cli"),
    "claims": "repro.bench.claims",
    "lint": "repro.analysis.cli",
    "prove": "repro.analysis.prover",
    "perf": "repro.perf.cli",
    "trace": "repro.obs.cli",
    "chaos": "repro.chaos.cli",
    "fleet": "repro.cluster.cli",
    "replay": "repro.replay.cli",
    "slo": "repro.obs.slo_cli",
    "openloop": "repro.workloads.openloop_cli",
}


class UsageError(Exception):
    """Input only ``run`` can judge (an app missing from the loaded
    catalog, a fleet topology that cannot exist): the spine reports it
    exactly like a value the parser rejected — usage, one ``error:``
    line, exit 2."""


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer, not {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


#: argparse ``type=`` for counts that must be at least one.
positive_int = _int_at_least(1)


#: Declared once: ``--name`` -> its ``add_argument`` keywords.
SHARED_OPTIONS: Dict[str, Dict[str, Any]] = {
    "seed": dict(type=int, default=1,
                 help="seed of every random choice the run makes "
                      "(default: %(default)s); same seed, same bytes"),
    "quick": dict(action="store_true",
                  help="run a reduced workload (CI smoke)"),
    "workers": dict(type=resolve_workers, default="1", metavar="N|auto",
                    help="shard the work across N processes ('auto' = one "
                         "per CPU; default: 1, the serial reference); "
                         "changes wall-clock time only, never the output"),
    "check": dict(action="store_true",
                  help="validate what was written against its schema; "
                       "exit 1 on problems"),
    "catalog": dict(metavar="PATH",
                    help="Python file exposing catalog() -> {name: "
                         "AppConfig}; defaults to the built-in server "
                         "catalog"),
}


def add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **SHARED_OPTIONS[name])


def add_report_path(parser: argparse.ArgumentParser, flag: str,
                    default: Optional[str], *, note: str = "") -> None:
    """The report-path option, under the spelling (``--out`` or
    ``--report``) the command has always had."""
    where = f"default: {default}" if default else "default: not written"
    parser.add_argument(flag, metavar="PATH",
                        help=f"where the report is written ({where}){note}")


def load_catalog(args: argparse.Namespace, apps: Iterable[str]):
    """The catalog ``--catalog`` selects, checked to hold ``apps``."""
    from repro import apps as catalogs
    if args.catalog:
        try:
            catalog = catalogs.load_catalog(args.catalog)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load catalog {args.catalog!r}: "
                             f"{exc}") from None
    else:
        catalog = catalogs.default_catalog()
    unknown = [app for app in apps if app not in catalog]
    if unknown:
        raise UsageError(f"unknown app(s): {', '.join(unknown)} "
                         f"(catalog has: {', '.join(sorted(catalog))})")
    return catalog


def write_json(path: str, payload: Any, indent: int,
               sort_keys: bool) -> None:
    """Write a report.  Two styles are in use and pinned by goldens:
    ``indent=2, sort_keys=True`` (chaos, fleet, proof, replay, perf) and
    ``indent=1, sort_keys=False`` (slo, openloop — key order carries the
    phase and cell order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")


def fail(problems: List[str], label: str) -> int:
    """Print each problem to stderr as ``<label>: <problem>``; returns
    the exit status, 1 when there were any."""
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)
    return 1 if problems else 0


def check_verdict(problems: List[str], path: str, schema: str) -> int:
    """The ``--check`` gate's last line and exit status."""
    if fail(problems, "schema problem"):
        return 1
    print(f"schema ok: {path} is valid {schema}")
    return 0


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Run one command; returns the exit status (see the module
    docstring).  Usage errors leave through ``SystemExit(2)``, as
    argparse does."""
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {name}" if name else "python -m repro")
    if name is None:
        parser.description = ("Reproduce the MVEDSUA (ASPLOS 2019) "
                              "evaluation.")
        parser.add_argument("command", choices=list(COMMANDS),
                            help="what to run; COMMAND --help lists its "
                                 "flags")
        # Prints help or a usage error and exits, unless the command
        # hid behind a ``--``.
        return main([parser.parse_args(argv).command])
    module = importlib.import_module(COMMANDS[name])
    module.configure(parser)
    parser.set_defaults(command=name)
    args = parser.parse_args(argv[1:])
    try:
        return module.run(args)
    except UsageError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
