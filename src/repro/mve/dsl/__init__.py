"""The rewrite-rule DSL (paper §3.3, Figures 4 and 5).

Rules map the *leader's* recorded syscall sequence into the sequence the
*follower* is expected to issue, tolerating intentional cross-version
differences while still catching real divergences.  Two stages use two
rule directions:

* ``OUTDATED_LEADER`` — old version leads; rules force the new follower
  to adhere to old-version semantics (e.g. redirect a new command the old
  leader rejected to ``bad-cmd`` so the follower rejects it too).
* ``UPDATED_LEADER`` — new version leads after promotion; the reverse
  mapping.

Every shipped rule is written in the paper-style textual syntax and
parsed once per process (:func:`rule_set`, :mod:`repro.mve.dsl.parser`).
The compiled form (a :class:`RewriteRule` of :class:`SyscallPattern`
positions) and the engine that runs it live in
:mod:`repro.mve.dsl.rules`.
"""

from repro.mve.dsl.rules import (
    ANY_FD,
    Direction,
    DispatchIndex,
    RewriteRule,
    RuleEngine,
    RuleSet,
    SyscallPattern,
    dispatch_key,
)
from repro.mve.dsl.parser import (
    CondAst,
    EmitAst,
    ExprAst,
    MatchAst,
    RuleAst,
    compile_rule,
    parse_rules,
    parse_rules_ast,
    rule_set,
)

__all__ = [
    "CondAst",
    "EmitAst",
    "ExprAst",
    "MatchAst",
    "RuleAst",
    "compile_rule",
    "parse_rules_ast",
    "ANY_FD",
    "Direction",
    "DispatchIndex",
    "RewriteRule",
    "RuleEngine",
    "RuleSet",
    "SyscallPattern",
    "dispatch_key",
    "parse_rules",
    "rule_set",
]
