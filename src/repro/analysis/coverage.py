"""Coverage cross-check of rules against version deltas.

For an update pair ``(old, new)`` the behavioural deltas are read off the
two :class:`~repro.dsu.version.ServerVersion` objects:

* the **command vocabulary** diff (:meth:`ServerVersion.commands`) — a
  command present in only one version is executed by one process and
  rejected by the other, so without a covering rewrite rule it is a
  *guaranteed* runtime divergence;
* the **static response-text** diff (:meth:`ServerVersion.response_texts`,
  e.g. the feature-derived Vsftpd banner/FEAT texts) — a text only one
  version emits needs a rule mapping it to the other version's text.

Severity encodes the paper's asymmetry: an uncovered delta in the
*outdated-leader* stage (the validation window) aborts the update and is
an ERROR; in the *updated-leader* stage the divergence merely terminates
the already-demoted old follower, which §3.3.2 explicitly tolerates, so
it is a WARNING.

Codes: **MVE201** uncovered command delta, **MVE202** uncovered
response-text delta, **MVE203** rule references a command absent from
both versions (DSL rules only; deliberate redirect *targets* like
``bad-cmd``/``FOOBAR`` live in emit expressions and are not checked).

A command counts as covered exactly when the MVE8xx prover would count
its class anchored: both read the pair through
:mod:`repro.analysis.effects` — the same probe lines, the same
per-probe guard evaluation (``effects.read_covers``), the same verbs
named by rule literals.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.analysis.effects import (literal_verbs, probe_lines, read_covers,
                                    safe_pred)
from repro.analysis.findings import Finding, Severity
from repro.dsu.version import ServerVersion
from repro.mve.dsl.rules import Direction, RewriteRule, RuleSet
from repro.syscalls.model import Sys

ANALYZER = "coverage"

#: Severity of an uncovered delta, per stage (see module docstring).
_STAGE_SEVERITY = {
    Direction.OUTDATED_LEADER: Severity.ERROR,
    Direction.UPDATED_LEADER: Severity.WARNING,
}


def _write_covers(rule: RewriteRule, text: bytes) -> bool:
    """Does any WRITE pattern of the rule match ``text``?"""
    return any(pattern.predicate is None
               or safe_pred(pattern.predicate, text)
               for pattern in rule.pattern if pattern.name is Sys.WRITE)


def check_coverage(app: str, old_version: ServerVersion,
                   new_version: ServerVersion,
                   ruleset: RuleSet) -> List[Finding]:
    """Cross-check one update pair's rules against its version deltas."""
    findings: List[Finding] = []
    pair = f"{old_version.name}->{new_version.name}"

    old_cmds = frozenset(old_version.commands())
    new_cmds = frozenset(new_version.commands())
    deltas = (("added", sorted(new_cmds - old_cmds)),
              ("removed", sorted(old_cmds - new_cmds)))

    for stage, severity in _STAGE_SEVERITY.items():
        stage_rules = ruleset.for_stage(stage)
        leader = "old" if stage is Direction.OUTDATED_LEADER else "new"
        for kind, commands in deltas:
            for command in commands:
                probes = probe_lines(command)
                if any(read_covers(r, probes) for r in stage_rules):
                    continue
                consequence = (
                    "guaranteed divergence aborts the update"
                    if severity is Severity.ERROR else
                    "old follower is terminated on first use (§3.3.2)")
                findings.append(Finding(
                    "MVE201", severity, ANALYZER, app,
                    f"{pair} {stage.value} command {command}",
                    f"command {command!r} ({kind} in this update) has no "
                    f"covering rule while the {leader} version leads: "
                    f"{consequence}"))

    old_texts = old_version.response_texts()
    new_texts = new_version.response_texts()
    if old_texts and new_texts:
        text_deltas = {
            Direction.OUTDATED_LEADER: sorted(old_texts - new_texts),
            Direction.UPDATED_LEADER: sorted(new_texts - old_texts),
        }
        for stage, severity in _STAGE_SEVERITY.items():
            stage_rules = ruleset.for_stage(stage)
            for text in text_deltas[stage]:
                if any(_write_covers(r, text) for r in stage_rules):
                    continue
                findings.append(Finding(
                    "MVE202", severity, ANALYZER, app,
                    f"{pair} {stage.value} text {text[:40]!r}",
                    f"the {stage.value.split('-')[0]} leader writes "
                    f"{text[:60]!r} which the follower never produces, "
                    f"and no rule rewrites it"))

    vocabulary = old_cmds | new_cmds
    for rule in ruleset.rules:
        findings.extend(_unknown_command_refs(app, pair, rule, vocabulary))
    return findings


def _unknown_command_refs(app: str, pair: str, rule: RewriteRule,
                          vocabulary: FrozenSet[str]) -> List[Finding]:
    """MVE203: DSL match conditions naming commands neither version has."""
    return [Finding("MVE203", Severity.WARNING, ANALYZER, app,
                    f"{pair} rule {rule.name}",
                    f"match condition references command {verb!r}, which "
                    f"neither version understands; the rule may never "
                    f"fire on real traffic")
            for verb in literal_verbs(rule)
            if not any(cmd.startswith(verb) for cmd in vocabulary)]
