"""Textual rule DSL, in the spirit of the paper's Figures 4 and 5.

Varan's DSL (Pina et al., USENIX ATC'17) writes rules as a match over the
leader's syscalls followed by the sequence the follower should issue.
This parser accepts a line-oriented rendering of the same idea::

    # Figure 4, Rule 1: direct new-typed PUTs to an invalid command.
    rule put_typed outdated-leader:
        read(fd, s) where startswith(s, "PUT-") => read(fd, "bad-cmd\\r\\n")

    # Figure 5: redirect commands the old leader rejected.
    rule stou outdated-leader:
        read(fd, s), write(fd, r) where r == "500 Unknown command.\\r\\n"
            => read(fd, "FOOBAR\\r\\n"), write(fd, r)

    # Merge a split banner write.
    rule banner both:
        write(fd, a), write(fd, b) where startswith(a, "220") => write(fd, a + b)

    # Swap two adjacent syscalls (Redis 2.0.0 -> 2.0.1).
    rule aof_order outdated-leader:
        write(f1, a), write(f2, b) where startswith(b, "*") => write(f2, b), write(f1, a)

Grammar (informal)::

    rules      := { rule }
    rule       := "rule" NAME [direction] ":" match_seq "=>" emit_seq
    direction  := "outdated-leader" | "updated-leader" | "both"
    match_seq  := match { "," match } [ "where" cond { "and" cond } ]
    match      := SYSCALL "(" fdvar "," var ")"
    cond       := var "==" STRING | var "!=" STRING
                | PRED "(" var "," STRING ")"          # startswith/endswith/contains
    emit_seq   := emit { "," emit }
    emit       := SYSCALL "(" fdvar "," expr ")"
    expr       := STRING | var | var "+" var
                | "replace_prefix" "(" var "," STRING "," STRING ")"
                | "replace" "(" var "," STRING "," STRING ")"

Variables bind the fd and payload of the matched records; emitted records
reuse the matched record's fd (patterns in this reproduction always apply
per-connection, which is what the paper's rules do too).

Parsing happens in two stages: the grammar above is first read into an
inspectable AST (:class:`RuleAst` and friends), which ``mvelint``
(:mod:`repro.analysis`) walks for static checks, and the AST is then
compiled into executable :class:`~repro.mve.dsl.rules.RewriteRule`
objects.  Compiled rules keep a reference to their source AST in
``RewriteRule.ast``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DslSyntaxError
from repro.mve.dsl.rules import Direction, RewriteRule, SyscallPattern
from repro.syscalls.model import Sys, SyscallRecord

_SYSCALLS = {
    "read": Sys.READ,
    "write": Sys.WRITE,
    "open": Sys.OPEN,
    "close": Sys.CLOSE,
    "unlink": Sys.UNLINK,
}

_DIRECTIONS = {
    "outdated-leader": Direction.OUTDATED_LEADER,
    "updated-leader": Direction.UPDATED_LEADER,
    "both": Direction.BOTH,
}

_PREDICATES = {
    "startswith": bytes.startswith,
    "endswith": bytes.endswith,
    "contains": lambda data, lit: lit in data,
}

_TOKEN_RE = re.compile(
    r"""
    \s*(
        "(?:[^"\\]|\\.)*"      # string literal
      | =>                     # arrow
      | == | != | \+ | , | \( | \) | :
      | [A-Za-z_][A-Za-z0-9_-]*
    )
    """,
    re.VERBOSE,
)


def _unescape(literal: str) -> bytes:
    body = literal[1:-1]
    return body.encode("utf-8").decode("unicode_escape").encode("latin-1")


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    stripped = "\n".join(
        line.split("#", 1)[0] for line in text.splitlines()
    )
    while position < len(stripped):
        match = _TOKEN_RE.match(stripped, position)
        if match is None:
            remainder = stripped[position:].strip()
            if not remainder:
                break
            raise DslSyntaxError(f"cannot tokenize near: {remainder[:30]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchAst:
    """One ``syscall(fdvar, datavar)`` match position."""

    syscall: Sys
    fd_var: str
    data_var: str


@dataclass(frozen=True)
class CondAst:
    """One ``where`` condition over a bound payload variable.

    ``op`` is one of ``eq``, ``ne``, ``startswith``, ``endswith``,
    ``contains``.
    """

    op: str
    var: str
    literal: bytes

    def evaluate(self, data: bytes) -> bool:
        """Apply this condition to a payload."""
        if self.op == "eq":
            return data == self.literal
        if self.op == "ne":
            return data != self.literal
        return _PREDICATES[self.op](data, self.literal)


@dataclass(frozen=True)
class ExprAst:
    """One emit expression.

    ``op`` is one of ``literal``, ``var``, ``concat``, ``replace``,
    ``replace_prefix``; the operand fields used depend on the op.
    """

    op: str
    var: Optional[str] = None
    other: Optional[str] = None
    literal: Optional[bytes] = None
    old: Optional[bytes] = None
    new: Optional[bytes] = None

    def variables(self) -> Tuple[str, ...]:
        """Payload variables this expression reads."""
        return tuple(v for v in (self.var, self.other) if v is not None)


@dataclass(frozen=True)
class EmitAst:
    """One ``syscall(fdvar, expr)`` emission."""

    syscall: Sys
    fd_var: str
    expr: ExprAst


@dataclass(frozen=True)
class RuleAst:
    """One parsed rule, before compilation."""

    name: str
    direction: Direction
    matches: Tuple[MatchAst, ...]
    conditions: Tuple[CondAst, ...] = ()
    emits: Tuple[EmitAst, ...] = ()

    def conditions_for(self, data_var: str) -> Tuple[CondAst, ...]:
        """The conditions constraining one payload variable."""
        return tuple(c for c in self.conditions if c.var == data_var)

    def used_variables(self) -> frozenset:
        """Payload variables referenced by any condition or emit."""
        used = {c.var for c in self.conditions}
        for emit in self.emits:
            used.update(emit.expr.variables())
        return frozenset(used)


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.position = 0

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)

    def peek(self) -> Optional[str]:
        if self.at_end():
            return None
        return self.tokens[self.position]

    def next(self) -> str:
        if self.at_end():
            raise DslSyntaxError("unexpected end of input")
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise DslSyntaxError(f"expected {token!r}, got {got!r}")

    # -- grammar -------------------------------------------------------------

    def parse_rules(self) -> List[RuleAst]:
        rules = []
        seen = set()
        while not self.at_end():
            rule = self.parse_rule()
            if rule.name in seen:
                raise DslSyntaxError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
            rules.append(rule)
        return rules

    def parse_rule(self) -> RuleAst:
        self.expect("rule")
        name = self.next()
        direction = Direction.OUTDATED_LEADER
        if self.peek() in _DIRECTIONS:
            direction = _DIRECTIONS[self.next()]
        self.expect(":")
        matches = [self.parse_match()]
        while self.peek() == ",":
            self.next()
            matches.append(self.parse_match())
        conditions = []
        if self.peek() == "where":
            self.next()
            conditions.append(self.parse_condition(matches))
            while self.peek() == "and":
                self.next()
                conditions.append(self.parse_condition(matches))
        self.expect("=>")
        emits = [self.parse_emit(matches)]
        while self.peek() == ",":
            self.next()
            emits.append(self.parse_emit(matches))
        return RuleAst(name, direction, tuple(matches), tuple(conditions),
                       tuple(emits))

    def parse_match(self) -> MatchAst:
        syscall_name = self.next()
        if syscall_name not in _SYSCALLS:
            raise DslSyntaxError(f"unknown syscall {syscall_name!r}")
        self.expect("(")
        fd_var = self.next()
        self.expect(",")
        data_var = self.next()
        self.expect(")")
        return MatchAst(_SYSCALLS[syscall_name], fd_var, data_var)

    def parse_condition(self, matches: List[MatchAst]) -> CondAst:
        head = self.next()
        if head in _PREDICATES:
            self.expect("(")
            var = self.next()
            self.expect(",")
            literal = self._string()
            self.expect(")")
            _require_var(var, matches)
            return CondAst(head, var, literal)
        var = head
        operator = self.next()
        literal = self._string()
        _require_var(var, matches)
        if operator == "==":
            return CondAst("eq", var, literal)
        if operator == "!=":
            return CondAst("ne", var, literal)
        raise DslSyntaxError(f"unknown operator {operator!r}")

    def parse_emit(self, matches: List[MatchAst]) -> EmitAst:
        syscall_name = self.next()
        if syscall_name not in _SYSCALLS:
            raise DslSyntaxError(f"unknown syscall {syscall_name!r}")
        self.expect("(")
        fd_var = self.next()
        self.expect(",")
        expr = self.parse_expr(matches)
        self.expect(")")
        _require_fd_var(fd_var, matches)
        return EmitAst(_SYSCALLS[syscall_name], fd_var, expr)

    def parse_expr(self, matches: List[MatchAst]) -> ExprAst:
        head = self.next()
        if head.startswith('"'):
            return ExprAst("literal", literal=_unescape(head))
        if head in ("replace_prefix", "replace"):
            self.expect("(")
            var = self.next()
            self.expect(",")
            old = self._string()
            self.expect(",")
            new = self._string()
            self.expect(")")
            _require_var(var, matches)
            return ExprAst(head, var=var, old=old, new=new)
        var = head
        _require_var(var, matches)
        if self.peek() == "+":
            self.next()
            other = self.next()
            _require_var(other, matches)
            return ExprAst("concat", var=var, other=other)
        return ExprAst("var", var=var)

    def _string(self) -> bytes:
        token = self.next()
        if not token.startswith('"'):
            raise DslSyntaxError(f"expected string literal, got {token!r}")
        return _unescape(token)


def _require_var(var: str, matches: List[MatchAst]) -> None:
    if var not in {m.data_var for m in matches}:
        raise DslSyntaxError(f"unbound payload variable {var!r}")


def _require_fd_var(var: str, matches: List[MatchAst]) -> None:
    if var not in {m.fd_var for m in matches}:
        raise DslSyntaxError(f"unbound fd variable {var!r}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _compile_expr(expr: ExprAst) -> Callable[[Dict[str, bytes]], bytes]:
    if expr.op == "literal":
        return lambda env, lit=expr.literal: lit
    if expr.op == "var":
        return lambda env, v=expr.var: env[v]
    if expr.op == "concat":
        return lambda env, a=expr.var, b=expr.other: env[a] + env[b]
    if expr.op == "replace_prefix":
        def prefix_expr(env, v=expr.var, o=expr.old, n=expr.new):
            data = env[v]
            if data.startswith(o):
                return n + data[len(o):]
            return data
        return prefix_expr
    if expr.op == "replace":
        return lambda env, v=expr.var, o=expr.old, n=expr.new: \
            env[v].replace(o, n)
    raise DslSyntaxError(f"unknown expression op {expr.op!r}")


def _compile_cond(cond: CondAst) -> Callable[[bytes], bool]:
    """``cond.evaluate`` as a C-level callable: the engine tests a guard
    once per candidate record, and a Python frame per test is most of
    what the test costs."""
    if cond.op == "eq":
        return partial(operator.eq, cond.literal)
    if cond.op == "ne":
        return partial(operator.ne, cond.literal)
    if cond.op in ("startswith", "endswith"):
        return operator.methodcaller(cond.op, cond.literal)
    if cond.op == "contains":
        return operator.methodcaller("__contains__", cond.literal)
    raise DslSyntaxError(f"unknown condition op {cond.op!r}")


def _compile_guard(conds: Tuple[CondAst, ...]) -> Callable[[bytes], bool]:
    """The predicate of one match position: all of ``conds`` hold."""
    tests = tuple(_compile_cond(cond) for cond in conds)
    if len(tests) == 1:
        return tests[0]

    def conjunction(data: bytes) -> bool:
        for test in tests:
            if not test(data):
                return False
        return True
    return conjunction


def compile_rule(ast: RuleAst) -> RewriteRule:
    """Compile one parsed rule into an executable :class:`RewriteRule`."""
    pattern = []
    for item in ast.matches:
        conds = ast.conditions_for(item.data_var)
        if conds:
            pattern.append(SyscallPattern(item.syscall,
                                          predicate=_compile_guard(conds)))
        else:
            pattern.append(SyscallPattern(item.syscall))

    fd_of = {m.fd_var: index for index, m in enumerate(ast.matches)}
    var_of = {m.data_var: index for index, m in enumerate(ast.matches)}
    emits = tuple((e.syscall, e.fd_var, _compile_expr(e.expr))
                  for e in ast.emits)

    def action(matched: List[SyscallRecord],
               emits=emits) -> List[SyscallRecord]:
        env = {var: matched[index].data for var, index in var_of.items()}
        out = []
        for syscall, fd_var, expr in emits:
            source = matched[fd_of[fd_var]]
            data = expr(env)
            out.append(SyscallRecord(syscall, fd=source.fd, data=data,
                                     result=len(data)))
        return out

    return RewriteRule(ast.name, tuple(pattern), action, ast.direction,
                       ast=ast)


def parse_rules_ast(text: str) -> List[RuleAst]:
    """Parse DSL ``text`` into inspectable :class:`RuleAst` objects."""
    return _Parser(_tokenize(text)).parse_rules()


@lru_cache(maxsize=32)
def _compiled(text: str) -> Tuple[RewriteRule, ...]:
    return tuple(compile_rule(ast) for ast in parse_rules_ast(text))


def parse_rules(text: str) -> List[RewriteRule]:
    """Parse DSL ``text`` into :class:`RewriteRule` objects.

    A text is parsed and compiled once (the catalogues are constants,
    and a chaos campaign asks for them per cell); every call gets its
    own list of the shared rules, which nothing mutates — engine state
    and stage caches live in the :class:`RuleSet` the caller builds.
    """
    return list(_compiled(text))
