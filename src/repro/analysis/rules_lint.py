"""Static lint of rewrite-rule sets.

The rule engine (:class:`repro.mve.dsl.rules.RuleEngine`) tries rules in
priority order and fires the first full prefix match, so rule-set bugs
have precise static definitions:

* **MVE101 duplicate-rule-name** — two rules share a name; divergence
  reports and `fired` telemetry become ambiguous.
* **MVE102 shadowed-rule** — an earlier rule matches (a prefix of)
  everything a later rule matches in every stage the later rule is
  active in, so the later rule can never fire.
* **MVE103 conflicting-overlap** — two same-length rules can match the
  same record sequence but emit different expectations; which one wins
  silently depends on registration order.
* **MVE104 dead-direction** — a rule is tagged with a
  :class:`~repro.mve.dsl.rules.Direction` whose stage leader can never
  produce the payloads the rule matches (it matches only texts the
  *other* version emits), so it can never fire for the update pair.
* **MVE105 concrete-fd-pin** — a pattern pins a non-negative logical fd;
  runtime fds are dynamic, so such patterns are almost always wrong
  (use ``ANY_FD`` or the channel sentinels -2/-3).
* **MVE106 unused-binding** — a DSL rule binds a payload variable it
  never reads (often a symptom of a half-edited rule).
* **MVE107 hot-dispatch-bucket** — many rules share the same
  first-pattern dispatch key (syscall name + pinned fd), so the engine's
  dispatch index cannot discriminate between them and every matching
  record probes each rule in the bucket in turn; differentiate first
  positions (or split the rule set per stage) to keep dispatch O(1).

Rules parsed from the textual DSL — every shipped rule — carry their
AST (:attr:`RewriteRule.ast`), enabling structural subsumption and
overlap reasoning over ``where`` clauses; a rule built directly as a
:class:`RewriteRule` exposes only opaque predicate callables, for which
the lint falls back to conservative identity-based checks (no false
positives, fewer catches).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.findings import Finding, Severity
from repro.dsu.version import ServerVersion
from repro.mve.dsl.parser import BLANK, CondAst, RuleAst
from repro.mve.dsl.rules import (ANY_FD, Direction, RewriteRule, RuleSet,
                                 dispatch_key)
from repro.syscalls.model import Sys

ANALYZER = "rules"

#: The two runtime stages a rule may fire in.
_STAGES = (Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER)

#: MVE107 fires when more than this many same-stage rules land in one
#: first-pattern dispatch bucket.  Shipped catalogs stay well under it.
_DISPATCH_BUCKET_LIMIT = 4


def _stages_of(rule: RewriteRule) -> FrozenSet[Direction]:
    return frozenset(s for s in _STAGES if rule.direction.active_in(s))


def _cond_implies(strong: CondAst, weak: CondAst) -> bool:
    """Does satisfying ``strong`` guarantee ``weak`` holds?

    Variable names are ignored: callers only compare conditions bound to
    the same match position.
    """
    s, w = strong, weak
    if w.op == "eq":
        return s.op == "eq" and s.literal == w.literal
    if w.op == "startswith":
        return s.op in ("eq", "startswith") and s.literal.startswith(w.literal)
    if w.op == "endswith":
        return s.op in ("eq", "endswith") and s.literal.endswith(w.literal)
    if w.op == "contains":
        return s.op in ("eq", "startswith", "endswith", "contains") \
            and w.literal in s.literal
    if w.op == "ne":
        if s.op == "ne":
            return s.literal == w.literal
        return s.op == "eq" and s.literal != w.literal
    return False


def _conds_contradict(a: CondAst, b: CondAst) -> bool:
    """Can no payload satisfy both conditions?  (Provable cases only.)"""
    pair = {a.op, b.op}
    if a.op == "eq" and b.op == "eq":
        return a.literal != b.literal
    for eq, other in ((a, b), (b, a)):
        if eq.op != "eq":
            continue
        if other.op == "startswith":
            return not eq.literal.startswith(other.literal)
        if other.op == "endswith":
            return not eq.literal.endswith(other.literal)
        if other.op == "contains":
            return other.literal not in eq.literal
        if other.op == "ne":
            return eq.literal == other.literal
    if pair == {"startswith"}:
        return not (a.literal.startswith(b.literal)
                    or b.literal.startswith(a.literal))
    if pair == {"endswith"}:
        return not (a.literal.endswith(b.literal)
                    or b.literal.endswith(a.literal))
    return False


class _Position:
    """One match position of one rule, in analyzable form."""

    def __init__(self, syscall: Sys, fd: int, predicate,
                 conds: Optional[Tuple[CondAst, ...]]) -> None:
        self.syscall = syscall
        self.fd = fd
        self.predicate = predicate
        #: Structural conditions when the rule came from the DSL.
        self.conds = conds

    def subsumes(self, other: "_Position") -> bool:
        """Does this (earlier) position match everything ``other`` does?"""
        if self.syscall is not other.syscall:
            return False
        if self.fd != ANY_FD and self.fd != other.fd:
            return False
        if self.predicate is None:
            return True
        if self.conds is not None and other.conds is not None:
            return all(any(_cond_implies(oc, sc) for oc in other.conds)
                       for sc in self.conds)
        return self.predicate is other.predicate

    def overlaps(self, other: "_Position") -> bool:
        """Could one record satisfy both positions?  Conservative: only
        claims overlap when it is provable."""
        if self.syscall is not other.syscall:
            return False
        if ANY_FD not in (self.fd, other.fd) and self.fd != other.fd:
            return False
        if self.predicate is None or other.predicate is None:
            return True
        if self.conds is not None and other.conds is not None:
            return not any(_conds_contradict(a, b)
                           for a in self.conds for b in other.conds)
        return self.predicate is other.predicate


def _positions(rule: RewriteRule) -> List[_Position]:
    ast: Optional[RuleAst] = rule.ast
    positions = []
    for index, pattern in enumerate(rule.pattern):
        conds = None
        if ast is not None and index < len(ast.matches):
            conds = ast.conditions_for(ast.matches[index].data_var)
        positions.append(_Position(pattern.name, pattern.fd,
                                   pattern.predicate, conds))
    return positions


def _shadows(earlier: List[_Position], later: List[_Position]) -> bool:
    """Earlier rule consumes (a prefix of) every window the later rule
    would need, so the later rule never completes a match first."""
    if len(earlier) > len(later):
        return False
    return all(e.subsumes(lt) for e, lt in zip(earlier, later))


def lint_rules(ruleset: RuleSet, *, app: str = "", pair: str = "",
               old_version: Optional[ServerVersion] = None,
               new_version: Optional[ServerVersion] = None) -> List[Finding]:
    """Run all rule-set checks; returns the findings."""
    findings: List[Finding] = []
    prefix = f"{pair} " if pair else ""

    def emit(code: str, severity: Severity, rule: RewriteRule,
             message: str) -> None:
        findings.append(Finding(code, severity, ANALYZER, app,
                                f"{prefix}rule {rule.name}", message))

    rules = ruleset.rules
    positions = [_positions(r) for r in rules]
    stages = [_stages_of(r) for r in rules]

    # MVE101: duplicate names.
    seen: Dict[str, int] = {}
    for rule in rules:
        seen[rule.name] = seen.get(rule.name, 0) + 1
    for rule in rules:
        if seen.get(rule.name, 0) > 1:
            emit("MVE101", Severity.ERROR, rule,
                 f"rule name {rule.name!r} is defined "
                 f"{seen.pop(rule.name)} times")

    # MVE102 / MVE103: shadowing and conflicting overlap.
    for j in range(len(rules)):
        for i in range(j):
            if not stages[j] or not stages[j] & stages[i]:
                continue
            if stages[j] <= stages[i] and _shadows(positions[i],
                                                   positions[j]):
                emit("MVE102", Severity.ERROR, rules[j],
                     f"unreachable: earlier rule {rules[i].name!r} "
                     f"matches a prefix of everything this rule matches")
                continue
            if (rules[i].ast is not None and rules[j].ast is not None
                    and len(positions[i]) == len(positions[j])
                    and all(a.overlaps(b) for a, b in zip(positions[i],
                                                          positions[j]))
                    and rules[i].ast.emits != rules[j].ast.emits):
                emit("MVE103", Severity.WARNING, rules[j],
                     f"overlaps rule {rules[i].name!r} with a different "
                     f"emit sequence; priority order silently decides")

    # MVE104: direction that can never fire for this update pair.
    if old_version is not None and new_version is not None:
        old_texts = old_version.response_texts()
        new_texts = new_version.response_texts()
        if old_texts and new_texts:
            by_stage = {
                Direction.OUTDATED_LEADER: (old_texts,
                                            new_texts - old_texts),
                Direction.UPDATED_LEADER: (new_texts,
                                           old_texts - new_texts),
            }
            for rule, pos_list, rule_stages in zip(rules, positions, stages):
                dead_stages = []
                for stage in rule_stages:
                    leader_texts, follower_only = by_stage[stage]
                    if any(_write_dead(p, leader_texts, follower_only)
                           for p in pos_list):
                        dead_stages.append(stage.value)
                if dead_stages and len(dead_stages) == len(rule_stages):
                    emit("MVE104", Severity.ERROR, rule,
                         f"can never fire: matches response text the "
                         f"{'/'.join(dead_stages)} leader never produces "
                         f"(direction is tagged backwards?)")

    # MVE105: concrete fd pins.
    for rule, pos_list in zip(rules, positions):
        for index, pos in enumerate(pos_list):
            if pos.fd >= 0:
                emit("MVE105", Severity.WARNING, rule,
                     f"pattern position {index} pins concrete fd "
                     f"{pos.fd}; logical fds are assigned at runtime "
                     f"(use ANY_FD or a channel sentinel)")

    # MVE107: overloaded first-pattern dispatch buckets.  Mirrors
    # DispatchIndex: a record with a concrete fd probes the exact
    # (sys, fd) bucket plus the ANY_FD bucket for the same syscall, so
    # the effective candidate count is exact + wildcard.
    for stage in _STAGES:
        exact: Dict[Tuple[Sys, int], List[RewriteRule]] = {}
        wild: Dict[Sys, List[RewriteRule]] = {}
        for rule, rule_stages in zip(rules, stages):
            if stage not in rule_stages:
                continue
            name, fd = dispatch_key(rule.pattern[0])
            if fd == ANY_FD:
                wild.setdefault(name, []).append(rule)
            else:
                exact.setdefault((name, fd), []).append(rule)
        reported = set()
        for (name, fd), bucket in sorted(exact.items(),
                                         key=lambda kv: (kv[0][0].value,
                                                         kv[0][1])):
            effective = bucket + wild.get(name, [])
            if len(effective) > _DISPATCH_BUCKET_LIMIT:
                reported.add(name)
                emit("MVE107", Severity.WARNING, effective[0],
                     f"{len(effective)} {stage.value}-stage rules share "
                     f"first-pattern dispatch bucket ({name}, fd={fd}); "
                     f"every such record probes all of them in turn")
        for name, bucket in sorted(wild.items(), key=lambda kv: kv[0].value):
            if name in reported:
                continue
            if len(bucket) > _DISPATCH_BUCKET_LIMIT:
                emit("MVE107", Severity.WARNING, bucket[0],
                     f"{len(bucket)} {stage.value}-stage rules share "
                     f"first-pattern dispatch bucket ({name}, ANY_FD); "
                     f"every such record probes all of them in turn")

    # MVE106: bound-but-unused payload variables (DSL rules only; "_"
    # binds nothing).
    for rule in rules:
        ast: Optional[RuleAst] = rule.ast
        if ast is None:
            continue
        used = ast.used_variables() | {BLANK}
        for match in ast.matches:
            if match.data_var not in used:
                emit("MVE106", Severity.INFO, rule,
                     f"payload variable {match.data_var!r} is bound "
                     f"but never used")
    return findings


def _write_dead(position: _Position, leader_texts: FrozenSet[bytes],
                follower_only: FrozenSet[bytes]) -> bool:
    """A WRITE pattern that matches only texts the stage's leader never
    produces (but the follower does) is proof the rule cannot fire."""
    if position.syscall is not Sys.WRITE or position.predicate is None:
        return False
    try:
        matches_leader = any(position.predicate(t) for t in leader_texts)
        matches_follower = any(position.predicate(t) for t in follower_only)
    except Exception:
        return False  # predicate not total over probe texts: no claim
    return matches_follower and not matches_leader
