"""Textual rule DSL, in the spirit of the paper's Figures 4 and 5.

Varan's DSL (Pina et al., USENIX ATC'17) writes rules as a match over the
leader's syscalls followed by the sequence the follower should issue.
This parser accepts a line-oriented rendering of the same idea, and it
is the only way a shipped rule is written::

    # Figure 4, Rule 1: direct new-typed PUTs to an invalid command.
    rule put_typed outdated-leader:
        read(fd, s) where startswith(s, "PUT-") => read(fd, "bad-cmd\\r\\n")

    # Figure 5: redirect commands the old leader rejected.
    rule stou outdated-leader:
        read(fd, s), write(fd, r) where r == "500 Unknown command.\\r\\n"
            => read(fd, "FOOBAR\\r\\n"), write(fd, r)

    # Swap the reply and the AOF append (Redis 2.0.0 -> 2.0.1).
    rule aof_order outdated-leader:
        write(c, a), write(-3, b) where startswith(b, "AOF ")
            => write(-3, b), write(c, a)

    # After promotion the old follower rejects EPSV: expect its 500, not
    # the leader's listen and 229 reply (Vsftpd 1.2.2 -> 2.0.0).
    rule epsv_tolerate updated-leader tag vsftpd-epsv:
        read(fd, s), listen(_, _), write(r, t)
            where startswith(s, "EPSV") and startswith(t, "229")
            => read(fd, s), write(r, "500 Unknown command.\\r\\n")

    # Accept whatever reply the old follower writes (Memcached 1.2.5).
    rule noreply_tolerate updated-leader tag memcached-noreply:
        read(fd, s) where matches(s, ".* noreply") => read(fd, s), write(fd, *)

Grammar (informal)::

    rules      := { rule }
    rule       := "rule" NAME [direction] ["tag" NAME] ":" match_seq
                  "=>" emit_seq
    direction  := "outdated-leader" | "updated-leader" | "both"
    match_seq  := match { "," match } [ "where" cond { "and" cond } ]
    match      := SYSCALL "(" fd "," var ")"
    fd         := var | INT                    # an INT pins that fd
    var        := NAME | "_"                   # "_" binds nothing
    cond       := var "==" STRING | var "!=" STRING
                | PRED "(" var "," STRING ")"
    emit_seq   := emit { "," emit }
    emit       := SYSCALL "(" fd "," ( expr | "*" ) ")"
    expr       := STRING | var | var "+" var
                | "replace_prefix" "(" var "," STRING "," STRING ")"
                | "replace" "(" var "," STRING "," STRING ")"

SYSCALL is any :class:`~repro.syscalls.model.Sys` value.  PRED is
``startswith``, ``endswith``, ``contains`` or ``matches`` (an anchored
``re.match`` of the literal as a pattern).  ``#`` outside a string
literal starts a comment that runs to the end of the line.

Variables bind the fd and payload of the matched records.  An emit
builds its record one of three ways:

* an emit that repeats a match position (same syscall, fd and payload
  variable) re-emits that matched record unchanged;
* a ``*`` payload emits a wildcard record, which accepts whatever the
  follower issues there (``aux={"wildcard": True}``);
* any other emit copies the first matched record its fd variable names,
  with the emit's syscall and payload, so the rest of the record (a
  replayed errno in ``aux``, say) survives the rewrite.

``tag`` sets :attr:`~repro.mve.dsl.rules.RewriteRule.trace_tag`.  A
rule that emits fewer records than it matches, or emits ``*``,
``suppresses`` a would-be divergence, and mvelint's MVE501 asks it for
a tag.

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
from repro.mve.dsl.rules import ANY_FD, Direction, RewriteRule, SyscallPattern
from repro.syscalls.model import Sys, SyscallRecord

_DIRECTIONS = {
    "outdated-leader": Direction.OUTDATED_LEADER,
    "updated-leader": Direction.UPDATED_LEADER,
    "both": Direction.BOTH,
}

_PREDICATES = {
    "startswith": bytes.startswith,
    "endswith": bytes.endswith,
    "contains": lambda data, lit: lit in data,
    "matches": lambda data, lit: re.match(lit, data) is not None,
}

#: The variable that binds nothing.
BLANK = "_"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_INT_RE = re.compile(r"-?[0-9]+")

_TOKEN_RE = re.compile(
    r"""
    \s*(
        "(?:[^"\\]|\\.)*"      # string literal
      | \#[^\n]*               # comment, dropped by _tokenize
      | =>                     # arrow
      | == | != | \+ | , | \( | \) | : | \*
      | -?[0-9]+               # integer: a pinned fd
      | [A-Za-z_][A-Za-z0-9_-]*
    )
    """,
    re.VERBOSE,
)


def _unescape(literal: str) -> bytes:
    body = literal[1:-1]
    try:
        return body.encode("utf-8").decode("unicode_escape").encode("latin-1")
    except UnicodeError as exc:
        raise DslSyntaxError(
            f"bad string literal {literal[:30]!r}: {exc.reason}") from None


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise DslSyntaxError(f"cannot tokenize near: {remainder[:30]!r}")
        if not match.group(1).startswith("#"):
            tokens.append(match.group(1))
        position = match.end()
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchAst:
    """One ``syscall(fd, datavar)`` match position.  ``fd_var`` is the
    fd as written: a variable, ``_``, or an integer that pins the fd."""

    syscall: Sys
    fd_var: str
    data_var: str

    @property
    def fd(self) -> int:
        """The pinned fd, or ``ANY_FD``."""
        return int(self.fd_var) if _INT_RE.fullmatch(self.fd_var) else ANY_FD


@dataclass(frozen=True)
class CondAst:
    """One ``where`` condition over a bound payload variable.

    ``op`` is one of ``eq``, ``ne``, ``startswith``, ``endswith``,
    ``contains``, ``matches``.
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
    ``replace_prefix``, ``wildcard``; the operand fields used depend on
    the op.
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
    """One ``syscall(fd, expr)`` emission."""

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
    trace_tag: Optional[str] = None

    def conditions_for(self, data_var: str) -> Tuple[CondAst, ...]:
        """The conditions constraining one payload variable."""
        return tuple(c for c in self.conditions if c.var == data_var)

    def used_variables(self) -> frozenset:
        """Payload variables referenced by any condition or emit."""
        used = {c.var for c in self.conditions}
        for emit in self.emits:
            used.update(emit.expr.variables())
        return frozenset(used)


def _repeated(matches: Tuple[MatchAst, ...],
              emit: EmitAst) -> Optional[int]:
    """The match position ``emit`` re-emits unchanged, if it repeats one."""
    if emit.expr.op != "var":
        return None
    for index, match in enumerate(matches):
        if (match.syscall, match.fd_var, match.data_var) \
                == (emit.syscall, emit.fd_var, emit.expr.var):
            return index
    return None


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
        trace_tag = None
        if self.peek() == "tag":
            self.next()
            trace_tag = self._name()
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
                       tuple(emits), trace_tag)

    def parse_match(self) -> MatchAst:
        syscall = self._syscall()
        self.expect("(")
        fd_var = self._fd()
        self.expect(",")
        data_var = self._name()
        self.expect(")")
        return MatchAst(syscall, fd_var, data_var)

    def parse_condition(self, matches: List[MatchAst]) -> CondAst:
        head = self.next()
        if head in _PREDICATES:
            self.expect("(")
            var = self.next()
            self.expect(",")
            literal = self._string()
            self.expect(")")
            _require_var(var, matches)
            if head == "matches":
                try:
                    re.compile(literal)
                except (re.error, OverflowError) as exc:
                    raise DslSyntaxError(
                        f"bad pattern {literal[:30]!r}: {exc}") from None
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
        syscall = self._syscall()
        self.expect("(")
        fd_var = self._fd()
        self.expect(",")
        if self.peek() == "*":
            self.next()
            if syscall is not Sys.WRITE:
                raise DslSyntaxError("a '*' payload emits a write only")
            expr = ExprAst("wildcard")
        else:
            expr = self.parse_expr(matches)
        self.expect(")")
        emit = EmitAst(syscall, fd_var, expr)
        if _repeated(matches, emit) is None:
            _require_fd_var(fd_var, matches)
        return emit

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

    def _syscall(self) -> Sys:
        token = self.next()
        try:
            return Sys(token)
        except ValueError:
            raise DslSyntaxError(f"unknown syscall {token!r}") from None

    def _name(self) -> str:
        token = self.next()
        if not _NAME_RE.fullmatch(token):
            raise DslSyntaxError(f"expected a name, got {token!r}")
        return token

    def _fd(self) -> str:
        token = self.next()
        if not (_INT_RE.fullmatch(token) or _NAME_RE.fullmatch(token)):
            raise DslSyntaxError(f"expected an fd, got {token!r}")
        return token


def _require_var(var: str, matches: List[MatchAst]) -> None:
    if var == BLANK or var not in {m.data_var for m in matches}:
        raise DslSyntaxError(f"unbound payload variable {var!r}")


def _require_fd_var(var: str, matches: List[MatchAst]) -> None:
    if var == BLANK or var not in {m.fd_var for m in matches} \
            or _INT_RE.fullmatch(var):
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
    if cond.op == "matches":
        return re.compile(cond.literal).match
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


def _compile_action(ast: RuleAst) -> Callable[[List[SyscallRecord]],
                                               List[SyscallRecord]]:
    """The emits as one action over the matched records (see the module
    docstring for how each emit builds its record)."""
    first: Dict[str, int] = {}
    for index, match in enumerate(ast.matches):
        first.setdefault(match.fd_var, index)
    plan = []
    read = set()
    for emit in ast.emits:
        index = _repeated(ast.matches, emit)
        if index is not None:
            plan.append((index, None, None))
        elif emit.expr.op == "wildcard":
            plan.append((first[emit.fd_var], emit.syscall, None))
        else:
            plan.append((first[emit.fd_var], emit.syscall,
                         _compile_expr(emit.expr)))
            read.update(emit.expr.variables())
    # Only what an expression reads: a reorder or a drop builds no env.
    bound = tuple((m.data_var, index) for index, m in enumerate(ast.matches)
                  if m.data_var in read)

    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        env = {}
        for var, index in bound:
            env[var] = matched[index].data
        out = []
        for index, syscall, expr in plan:
            source = matched[index]
            if syscall is None:
                out.append(source)
            elif expr is None:
                out.append(SyscallRecord(syscall, fd=source.fd,
                                         aux={"wildcard": True}))
            else:
                # ``source`` with a new name and payload, built without
                # ``_replace``'s Python frames.
                out.append(tuple.__new__(SyscallRecord, (
                    syscall, source.fd, expr(env), source.result,
                    source.aux)))
        return out
    return action


def compile_rule(ast: RuleAst) -> RewriteRule:
    """Compile one parsed rule into an executable :class:`RewriteRule`."""
    pattern = []
    for item in ast.matches:
        conds = ast.conditions_for(item.data_var)
        pattern.append(SyscallPattern(
            item.syscall, item.fd,
            _compile_guard(conds) if conds else None))
    suppresses = len(ast.emits) < len(ast.matches) or any(
        emit.expr.op == "wildcard" for emit in ast.emits)
    return RewriteRule(ast.name, tuple(pattern), _compile_action(ast),
                       ast.direction, ast=ast, trace_tag=ast.trace_tag,
                       suppresses=suppresses)


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
