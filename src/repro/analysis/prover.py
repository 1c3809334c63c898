"""The MVE8xx symbolic divergence prover.

For every update pair of an app the prover exhaustively explores the
abstract cross-version protocol state space (:mod:`.state_space` over
:mod:`.effects`) in both MVE stages and emits:

====== ===================================================================
Code   Meaning
====== ===================================================================
MVE801 reachable-uncovered-syscall — a client request sequence reaches a
       configuration where the two versions' responses must differ and
       no rewrite rule fired (ERROR while the old version leads, WARNING
       after promotion, mirroring MVE201's stage asymmetry)
MVE802 rule-effect-conflict — a rule fired on the diverging transition
       but its effect still leaves the versions inconsistent
MVE803 unreachable-rule — a rule that never fires anywhere in the
       explored space (WARNING for fully-modeled DSL rules, INFO for
       opaque programmatic predicates / pinned pseudo-fd patterns)
MVE804 non-confluent-rule-overlap — two rules fully match the same
       window with different effects, so behaviour depends on priority
       order
====== ===================================================================

Every MVE801/802 finding carries a shortest witness (BFS parent
pointers), which is compiled to an executable scenario and replayed
under the real runtime (:mod:`.witness`): findings the replay reproduces
are CONFIRMED (ForensicsBundle attached), findings it cannot are
SPURIOUS and auto-downgraded to WARNING with a refinement hint.

The run is summarized as a ``repro-proof/1`` certificate — deterministic
JSON (sorted keys, no wall-clock anywhere) keyed by a SHA-256 hash of
the static catalog model, so two runs over the same catalog are
byte-identical and CI can gate on the file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import cli
from repro.apps import AppConfig
from repro.analysis.findings import Finding, LintReport, Severity
from repro.analysis.state_space import (Divergence, Exploration,
                                        explore, fully_modeled,
                                        unfired_rules)
from repro.analysis.effects import ProtocolModel
from repro.analysis.witness import ReplayResult, Witness, replay_witness
from repro.mve.dsl.rules import Direction
from repro.errors import NoUpdatePath

ANALYZER = "prove"

#: Certificate schema identifier.
SCHEMA = "repro-proof/1"

#: Stage asymmetry (same convention as the MVE2xx coverage analyzer).
_STAGE_SEVERITY = {
    Direction.OUTDATED_LEADER: Severity.ERROR,
    Direction.UPDATED_LEADER: Severity.WARNING,
}

_STAGES = (Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER)


@dataclass
class ProveResult:
    """Everything one ``prove_app`` run produced."""

    report: LintReport
    certificate: Dict[str, Any]
    witnesses: List[Tuple[Witness, Optional[ReplayResult]]] = \
        field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.certificate["ok"])


def catalog_hash(config: AppConfig) -> str:
    """SHA-256 over the static model the prover consumed: versions,
    vocabularies, response texts, and rule structure.  Pure data — no
    timestamps, ids, or memory addresses — so the hash (and with it the
    whole certificate) is reproducible."""
    description: Dict[str, Any] = {"app": config.name, "pairs": []}
    versions = []
    for old, new in config.versions.update_pairs(config.name):
        for name in (old, new):
            if name not in versions:
                versions.append(name)
        try:
            ruleset = config.rules_for(old, new)
        except Exception:
            ruleset = None
        rules = []
        if ruleset is not None:
            for rule in ruleset.rules:
                rules.append({
                    "name": rule.name,
                    "direction": rule.direction.value,
                    "pattern": [{"sys": p.name.value, "fd": p.fd,
                                 "guarded": p.predicate is not None}
                                for p in rule.pattern],
                    "dsl": rule.ast is not None,
                    "suppresses": bool(rule.suppresses),
                })
        description["pairs"].append({"old": old, "new": new,
                                     "rules": rules})
    description["versions"] = []
    for name in versions:
        version = config.versions.get(config.name, name)
        description["versions"].append({
            "name": name,
            "commands": sorted(version.commands()),
            "texts": sorted(t.decode("latin-1")
                            for t in version.response_texts()),
        })
    canonical = json.dumps(description, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _divergence_finding(app: str, pair: str, div: Divergence,
                        witness: Witness) -> Finding:
    code = "MVE802" if div.fired else "MVE801"
    severity = _STAGE_SEVERITY[div.stage]
    commands = "; ".join(witness.command_lines())
    if div.fired:
        cause = (f"rule(s) {', '.join(div.fired)} fired but the effect "
                 f"still diverges ({div.detail})")
    else:
        cause = f"no rule covers the transition ({div.detail})"
    consequence = ("guaranteed divergence aborts the update"
                   if severity is Severity.ERROR else
                   "old follower is terminated on first use (§3.3.2)")
    return Finding(
        code, severity, ANALYZER, app,
        f"{pair} {div.stage.value} command {div.cls}",
        f"reachable divergence on {div.cls!r}: {cause}; witness "
        f"[{commands}]: {consequence}")


def _adjudicate(finding: Finding, result: ReplayResult) -> Finding:
    """Fold the replay verdict into the static finding."""
    from dataclasses import replace
    if result.status == "confirmed":
        message = (f"{finding.message} [witness replay: CONFIRMED — "
                   f"{result.detail}]")
        return replace(finding, message=message)
    if result.status == "spurious":
        severity = (Severity.WARNING if finding.severity is Severity.ERROR
                    else finding.severity)
        message = (f"{finding.message} [witness replay: SPURIOUS — "
                   f"{result.detail}; the vocabulary abstraction is "
                   f"coarser than the handlers, refine the protocol "
                   f"model or add a rule]")
        return replace(finding, severity=severity, message=message)
    message = (f"{finding.message} [witness replay: could not run — "
               f"{result.detail}]")
    return replace(finding, message=message)


def prove_app(config: AppConfig, *, replay: bool = True) -> ProveResult:
    """Run the prover over every update pair of one app."""
    app = config.name
    report = LintReport(apps=[app])
    witnesses: List[Tuple[Witness, Optional[ReplayResult]]] = []
    pairs_out: List[Dict[str, Any]] = []

    for old, new in config.versions.update_pairs(app):
        pair = f"{old}->{new}"
        try:
            old_version = config.versions.get(app, old)
            new_version = config.versions.get(app, new)
        except NoUpdatePath:  # pragma: no cover - registry is consistent
            continue
        try:
            ruleset = config.rules_for(old, new)
        except Exception:
            continue  # reported as MVE402 by the path audit
        if ruleset is None:
            continue
        model = ProtocolModel(old_version, new_version, ruleset.rules)
        explorations: List[Exploration] = []
        stage_out: List[Dict[str, Any]] = []
        witness_out: List[Dict[str, Any]] = []
        overlaps_seen = set()
        for stage in _STAGES:
            exploration = explore(model, ruleset, stage,
                                  old_version, new_version)
            explorations.append(exploration)
            stats = exploration.stats
            stage_out.append({
                "stage": stage.value,
                "configs": stats.configs,
                "transitions": stats.transitions,
                "widened": stats.widened,
                "truncated": stats.truncated,
                "degraded": stats.degraded,
                "rules_fired": sorted(stats.fired),
                "anchored_commands": sorted(stats.anchored),
            })
            for div in exploration.divergences:
                code = "MVE802" if div.fired else "MVE801"
                witness = Witness(
                    app=app, old=old, new=new, stage=stage.value,
                    code=code, cls=div.cls, kind=div.kind,
                    steps=div.path, detail=div.detail)
                finding = _divergence_finding(app, pair, div, witness)
                result: Optional[ReplayResult] = None
                if replay:
                    result = replay_witness(config, witness)
                    finding = _adjudicate(finding, result)
                report.findings.append(finding)
                witnesses.append((witness, result))
                entry = witness.as_dict()
                entry["code"] = code
                if result is not None:
                    entry["verdict"] = result.status.upper()
                    entry["replay_detail"] = result.detail
                    if result.forensics is not None:
                        entry["forensics"] = result.forensics
                witness_out.append(entry)
            for event in sorted(exploration.stats.overlaps,
                                key=lambda e: (e.first, e.second)):
                key = (stage, event.first, event.second)
                if key in overlaps_seen:
                    continue
                overlaps_seen.add(key)
                report.findings.append(Finding(
                    "MVE804", Severity.WARNING, ANALYZER, app,
                    f"{pair} {stage.value} rules "
                    f"{event.first}+{event.second}",
                    f"rules {event.first!r} and {event.second!r} both "
                    f"match the same record window with different "
                    f"effects; the outcome depends on priority order "
                    f"(non-confluent overlap)"))
        for rule in unfired_rules(ruleset, explorations):
            modeled = fully_modeled(rule)
            severity = Severity.WARNING if modeled else Severity.INFO
            reason = ("shadowed or unsatisfiable within the explored "
                      "space" if modeled else
                      "its pattern lies outside the request/response "
                      "abstraction (opaque predicate, pinned pseudo-fd, "
                      "or multi-record footprint)")
            report.findings.append(Finding(
                "MVE803", severity, ANALYZER, app,
                f"{pair} rule {rule.name}",
                f"rule never fired in any reachable configuration of "
                f"either stage: {reason}"))
        pairs_out.append({"old": old, "new": new, "stages": stage_out,
                          "witnesses": witness_out})

    report.apply_allowlist(app, config.allow)
    certificate = _certificate(config, report, pairs_out, replay)
    return ProveResult(report=report, certificate=certificate,
                       witnesses=witnesses)


def _certificate(config: AppConfig, report: LintReport,
                 pairs_out: List[Dict[str, Any]],
                 replay: bool) -> Dict[str, Any]:
    findings = [f.as_dict() for f in report.sorted_findings()]
    confirmed_801 = sum(
        1 for f in report.findings
        if f.code == "MVE801" and not f.allowlisted
        and "CONFIRMED" in f.message and f.severity is Severity.ERROR)
    spurious = sum(1 for f in report.findings if "SPURIOUS" in f.message)
    return {
        "schema": SCHEMA,
        "app": config.name,
        "catalog_hash": catalog_hash(config),
        "replay": replay,
        "pairs": pairs_out,
        "findings": findings,
        "summary": {
            "errors": report.count(Severity.ERROR),
            "warnings": report.count(Severity.WARNING),
            "infos": report.count(Severity.INFO),
            "allowlisted": sum(1 for f in report.findings if f.allowlisted),
            "confirmed_mve801_errors": confirmed_801,
            "spurious_downgraded": spurious,
        },
        "ok": not report.has_errors,
    }


def certificate_json(certificate: Dict[str, Any]) -> str:
    """The canonical byte-stable rendering of a certificate."""
    return json.dumps(certificate, sort_keys=True, indent=2) + "\n"


def configure(parser) -> None:
    parser.description = ("Exhaustively explore an app's cross-version "
                          "protocol state space, replay divergence "
                          "witnesses, and emit a repro-proof/1 "
                          "certificate.")
    parser.add_argument("app", help="app name from the catalog")
    cli.add_shared(parser, "catalog")
    cli.add_report_path(parser, "--out", "PROOF_<app>.json",
                        note="; '-' writes to stdout only")
    parser.add_argument("--json", action="store_true",
                        help="also print the certificate JSON to stdout")
    parser.add_argument("--no-replay", action="store_true",
                        help="skip dynamic witness replay (static only)")


def run(args) -> int:
    """``python -m repro prove APP`` — 0 clean certificate, 1 blocking
    findings, 2 internal error."""
    catalog = cli.load_catalog(args, [args.app])

    try:
        result = prove_app(catalog[args.app], replay=not args.no_replay)
    except Exception as exc:  # internal error: distinguish from findings
        print(f"prove: internal error: {exc!r}", file=sys.stderr)
        return 2

    out_path = args.out or f"PROOF_{args.app}.json"
    if out_path != "-":
        cli.write_json(out_path, result.certificate, indent=2,
                       sort_keys=True)
    if args.json or out_path == "-":
        print(certificate_json(result.certificate), end="")
    else:
        _print_human(result, out_path)
    return 0 if result.ok else 1


def _print_human(result: ProveResult, out_path: str) -> None:
    certificate = result.certificate
    print(f"prove: {certificate['app']} "
          f"(catalog {certificate['catalog_hash'][:12]})")
    for pair in certificate["pairs"]:
        for stage in pair["stages"]:
            print(f"  {pair['old']}->{pair['new']} {stage['stage']}: "
                  f"{stage['configs']} config(s), "
                  f"{stage['transitions']} transition(s), "
                  f"rules fired: "
                  f"{', '.join(stage['rules_fired']) or 'none'}")
    for finding in result.report.sorted_findings():
        print(finding.render())
    summary = certificate["summary"]
    print(f"{summary['errors']} error(s), {summary['warnings']} "
          f"warning(s), {summary['infos']} info(s), "
          f"{summary['allowlisted']} allowlisted, "
          f"{summary['confirmed_mve801_errors']} confirmed MVE801, "
          f"{summary['spurious_downgraded']} spurious-downgraded")
    print(f"certificate: {out_path}")
    if certificate["ok"]:
        print("ok: certificate is clean")
