"""Rule sets with the defect classes mvelint's rule lint must catch."""

from __future__ import annotations

from repro.mve.dsl import (
    Direction,
    RewriteRule,
    RuleSet,
    SyscallPattern,
    parse_rules,
)
from repro.syscalls.model import Sys

#: A later rule whose match prefix is subsumed by an earlier one: the
#: broad "PUT" prefix fires first on every "PUT-..." request, so the
#: narrow rule is unreachable (MVE102).
SHADOWED_TEXT = r'''
rule broad outdated-leader:
    read(fd, s) where startswith(s, "PUT") => read(fd, "bad-cmd\r\n")
rule narrow outdated-leader:
    read(fd, s) where startswith(s, "PUT-") => read(fd, "never\r\n")
'''

#: Two rules that can match the same request (startswith and endswith
#: are simultaneously satisfiable) but emit different sequences: which
#: fires depends silently on priority order (MVE103).
CONFLICTING_TEXT = r'''
rule by_prefix outdated-leader:
    read(fd, s) where startswith(s, "DEL ") => read(fd, "one\r\n")
rule by_suffix outdated-leader:
    read(fd, s) where endswith(s, "now\r\n") => read(fd, "two\r\n")
'''

#: Binds payload variable ``s`` and never reads it (MVE106).
UNUSED_VAR_TEXT = r'''
rule blind outdated-leader:
    read(fd, s) => read(fd, "fixed\r\n")
'''


def shadowed_rules() -> RuleSet:
    rules = RuleSet()
    for rule in parse_rules(SHADOWED_TEXT):
        rules.add(rule)
    return rules


def conflicting_rules() -> RuleSet:
    rules = RuleSet()
    for rule in parse_rules(CONFLICTING_TEXT):
        rules.add(rule)
    return rules


def unused_var_rules() -> RuleSet:
    rules = RuleSet()
    for rule in parse_rules(UNUSED_VAR_TEXT):
        rules.add(rule)
    return rules


def _redirect(name: str, guard) -> RewriteRule:
    """A read redirected to ``bad-cmd``, built without the DSL (whose
    parser refuses a duplicate name)."""
    return RewriteRule(
        name, [SyscallPattern(Sys.READ, predicate=guard)],
        lambda matched: [matched[0].with_data(b"bad-cmd\r\n")])


def duplicate_name_rules() -> RuleSet:
    """The same rule name registered twice (MVE101)."""
    rules = RuleSet()
    rules.add(_redirect("dup", lambda d: d.startswith(b"A")))
    rules.add(_redirect("dup", lambda d: d.startswith(b"B")))
    return rules


def dead_direction_rules(old_text: bytes, new_text: bytes) -> RuleSet:
    """A text-rewrite rule tagged with the wrong Direction (MVE104).

    The rule matches ``new_text`` — which only the *new* version writes —
    but is tagged ``outdated-leader``, the stage in which the *old*
    version leads; it can never fire for this update pair.
    """
    rules = RuleSet()
    rules.add(RewriteRule(
        "backwards",
        [SyscallPattern(Sys.WRITE, predicate=lambda d, t=new_text: d == t)],
        lambda matched, t=old_text: [matched[0].with_data(t)],
        Direction.OUTDATED_LEADER))
    return rules


def pinned_fd_rules() -> RuleSet:
    """A pattern pinning a concrete runtime fd (MVE105)."""
    rules = RuleSet()
    rules.add(RewriteRule(
        "pinned",
        [SyscallPattern(Sys.READ, fd=5)],
        lambda matched: list(matched)))
    return rules
