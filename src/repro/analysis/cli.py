"""The ``python -m repro lint`` entry point.

Runs all nine mvelint analyzers over an app catalog and prints the
report in one of three formats (``--format human|json|sarif``; the
legacy ``--json`` flag is an alias for ``--format json`` and emits
byte-identical output).  Under :mod:`repro.cli`'s exit policy the
finding (exit 1) is a non-allowlisted ERROR; an analyzer crash is an
internal error, not a lint verdict, and exits 2.

The symbolic divergence prover (analyzer 8, MVE8xx) performs dynamic
witness replay and is therefore opt-in for ``lint``: pass ``--prove``
(or run ``python -m repro prove APP`` for the full certificate).

``--spans PATH`` switches to span-hygiene mode: instead of the app
catalog, the MVE9xx checks run over the span records of a ``repro-run/1``
JSONL run log (written by ``python -m repro slo ... --spans PATH``,
``python -m repro trace`` or any ``--trace PATH``; event records are
skipped).  The file is schema-validated first; shape problems print to
stderr and exit 2, because a malformed run log cannot be certified
hygiene-clean.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Optional

from repro import cli
from repro.apps import AppConfig
from repro.analysis.coverage import check_coverage
from repro.analysis.findings import LintReport, Severity
from repro.analysis.paths import audit_paths, usable_pairs
from repro.analysis.rules_lint import lint_rules
from repro.analysis.specs import lint_specs
from repro.analysis.trace_lint import lint_trace_tags
from repro.analysis.transform_audit import audit_transforms

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_CRASH = 2


def run_app(config: AppConfig, *, prove: bool = False) -> LintReport:
    """Run all analyzers over one app; allowlist already applied."""
    report = LintReport(apps=[config.name])
    app = config.name
    report.extend(audit_paths(app, config.versions, config.transforms,
                              config.rules_for))
    for old, new, old_version, new_version, ruleset in usable_pairs(
            app, config.versions, config.rules_for):
        report.extend(lint_rules(ruleset, app=app, pair=f"{old}->{new}",
                                 old_version=old_version,
                                 new_version=new_version))
        report.extend(lint_trace_tags(ruleset, app=app, pair=f"{old}->{new}",
                                      old_version=old_version,
                                      new_version=new_version))
        report.extend(check_coverage(app, old_version, new_version,
                                     ruleset))
    report.extend(audit_transforms(app, config.versions, config.transforms,
                                   config.seed_requests))
    report.extend(lint_specs(config))
    if prove:
        from repro.analysis.prover import prove_app
        prove_result = prove_app(config)
        report.extend(prove_result.report.findings)
    report.apply_allowlist(app, config.allow)
    return report


def run_catalog(catalog: Dict[str, AppConfig],
                apps: Optional[Iterable[str]] = None, *,
                prove: bool = False) -> LintReport:
    """Run all analyzers over (a subset of) a catalog."""
    selected = list(apps) if apps else list(catalog)
    report = LintReport()
    for name in selected:
        app_report = run_app(catalog[name], prove=prove)
        report.apps.extend(app_report.apps)
        report.extend(app_report.findings)
    return report


def configure(parser) -> None:
    parser.description = ("mvelint: statically check rewrite rules, state "
                          "transformers, and update paths before "
                          "deploying.")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default=None,
                        help="report format (default: human)")
    parser.add_argument("--json", action="store_true",
                        help="alias for --format json")
    parser.add_argument("--app", action="append", metavar="APP",
                        help="limit analysis to APP (repeatable)")
    cli.add_shared(parser, "catalog")
    parser.add_argument("--prove", action="store_true",
                        help="also run the MVE8xx symbolic divergence "
                             "prover (slower: replays witnesses "
                             "dynamically)")
    parser.add_argument("--spans", metavar="PATH",
                        help="lint the span records of a repro-run/1 "
                             "JSONL run log for hygiene (MVE9xx) instead "
                             "of the catalog")


def run(args) -> int:
    if args.format and args.json and args.format != "json":
        raise cli.UsageError("--json conflicts with --format " + args.format)
    fmt = args.format or ("json" if args.json else "human")

    if args.spans:
        return _lint_spans_file(args.spans, fmt)
    catalog = cli.load_catalog(args, args.app or ())

    try:
        report = run_catalog(catalog, args.app, prove=args.prove)
    except Exception as exc:
        # An analyzer crash is an mvelint bug, not a lint verdict; keep
        # it distinguishable from real findings in CI.
        print(f"mvelint: internal error: {exc!r}", file=sys.stderr)
        return EXIT_CRASH

    return _render(report, fmt)


def _lint_spans_file(path: str, fmt: str) -> int:
    """Span-hygiene mode: MVE9xx over one repro-run/1 JSONL file."""
    from repro.analysis.trace_lint import lint_span_file
    from repro.obs.trace import validate_file
    if cli.fail(validate_file(path), "span schema problem"):
        return 2    # unusable input, as an invalid stream is to replay
    report = LintReport(apps=["spans"])
    report.extend(lint_span_file(path))
    return _render(report, fmt)


def _render(report: LintReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        from repro.analysis.sarif import sarif_json
        print(sarif_json(report))
    else:
        _print_human(report)
    return EXIT_FINDINGS if report.has_errors else EXIT_CLEAN


def _print_human(report: LintReport) -> None:
    print(f"mvelint: analyzed {', '.join(dict.fromkeys(report.apps))}")
    for finding in report.sorted_findings():
        print(finding.render())
    errors = report.count(Severity.ERROR)
    warnings = report.count(Severity.WARNING)
    infos = report.count(Severity.INFO)
    allowlisted = sum(1 for f in report.deduped_findings()
                      if f.allowlisted)
    print(f"{errors} error(s), {warnings} warning(s), {infos} info(s), "
          f"{allowlisted} allowlisted")
    if not report.has_errors:
        print("ok: no blocking findings")
