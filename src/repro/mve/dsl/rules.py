"""Rewrite rules: patterns over leader syscall sequences and the
transformations that yield the follower's expected sequence.

The engine consumes the leader's record stream lazily.  A rule matches a
*prefix* of the unconsumed stream; when it fires, its action replaces the
matched records with the follower-side expectation.  Records no rule
touches pass through unchanged — the common case, since most syscalls are
identical across versions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import RuleError
from repro.syscalls.model import Sys, SyscallRecord

#: Wildcard fd in a pattern.
ANY_FD = -1


class Direction(enum.Enum):
    """Which MVE stage a rule applies to."""

    OUTDATED_LEADER = "outdated-leader"
    UPDATED_LEADER = "updated-leader"
    BOTH = "both"

    def active_in(self, stage: "Direction") -> bool:
        """True when a rule tagged with this direction fires in ``stage``."""
        if self is Direction.BOTH:
            return True
        return self is stage


@dataclass(frozen=True)
class SyscallPattern:
    """Matches one syscall record.

    ``predicate`` (if given) receives the record's payload bytes and must
    return True for the pattern to match — this is the ``parse($(s))``
    guard of the paper's DSL.
    """

    name: Sys
    fd: int = ANY_FD
    predicate: Optional[Callable[[bytes], bool]] = None

    def matches(self, record: SyscallRecord) -> bool:
        """Does ``record`` satisfy this pattern?"""
        if record.name is not self.name:
            return False
        if self.fd != ANY_FD and record.fd != self.fd:
            return False
        if self.predicate is not None and not self.predicate(record.data):
            return False
        return True


#: An action maps the matched leader records to the follower expectation.
Action = Callable[[List[SyscallRecord]], List[SyscallRecord]]


@dataclass
class RewriteRule:
    """One rewrite rule: a sequence pattern plus an action."""

    name: str
    pattern: Sequence[SyscallPattern]
    action: Action
    direction: Direction = Direction.OUTDATED_LEADER
    #: Source AST (a :class:`repro.mve.dsl.parser.RuleAst`); every
    #: shipped rule is DSL text and has one.  None for a rule built
    #: directly from this class.  mvelint uses it for structural checks.
    ast: Any = None
    #: Annotation naming the intentional cross-version difference this
    #: rule covers (e.g. "memcached-noreply"; the DSL's ``tag``).
    #: mvelint's MVE501 requires it on rules that suppress.
    trace_tag: Optional[str] = None
    #: True when the rule emits fewer records than it matches, or a
    #: wildcard, i.e. it would silently swallow a would-be divergence.
    suppresses: bool = False

    def __post_init__(self) -> None:
        if not self.pattern:
            raise RuleError(f"rule {self.name!r} has an empty pattern")

    def apply(self, records: Sequence[SyscallRecord]) -> List[SyscallRecord]:
        """Run the action over exactly the matched records."""
        matched = list(islice(records, len(self.pattern)))
        rewritten = self.action(matched)
        if rewritten is None:
            raise RuleError(f"rule {self.name!r} action returned None")
        return rewritten


def dispatch_key(pattern: SyscallPattern) -> Tuple[Sys, int]:
    """The dispatch-index bucket a first-position pattern lands in.

    The engine dispatches on the head record's ``(name, fd)`` only;
    predicates are evaluated *inside* the bucket.  mvelint imports this
    so its MVE107 hot-bucket check stays in sync with the engine.
    """
    return (pattern.name, pattern.fd)


#: One dispatch candidate: the rule, its single-record guard, and its
#: pattern when that spans several records (None when it does not).
Candidate = Tuple[RewriteRule, Any, Optional[Sequence[SyscallPattern]]]


def _candidate_tuple(merged: List[Tuple[int, RewriteRule]]
                     ) -> Tuple[Candidate, ...]:
    """A bucket's ``(priority, rule)`` pairs as :meth:`DispatchIndex.
    candidates` hands them out."""
    return tuple((rule, rule.pattern[0].predicate, None)
                 if len(rule.pattern) == 1 else (rule, None, rule.pattern)
                 for _, rule in merged)


class DispatchIndex:
    """Rules bucketed by their first pattern's ``(Sys, fd)``.

    A rule can only match — or be *viable* — when its first pattern
    matches the window's head record, and name/fd mismatches decide
    that without calling any predicate.  Bucketing rules by the first
    pattern's name (with pinned-fd sub-buckets) therefore preserves
    exact priority-order semantics while letting pass-through records —
    the common case per the paper — skip rule evaluation entirely.

    Each candidate carries its guard: for a single-record rule the
    bucket has already matched name and fd, so the pattern's predicate
    (or None) is all that is left to test; a multi-record rule carries
    its pattern instead, tested position by position against the window.

    A rule set builds one per stage, which every engine of the stage
    shares across deployments (see :meth:`RuleSet.engine_for_stage`);
    only its candidate cache grows.  The tables are keyed by the
    syscall's ``_value_``: a ``Sys`` hashes through a Python-level
    ``Enum.__hash__``, a frame per lookup on the per-record path.
    """

    __slots__ = ("rules", "_exact", "_wild", "_cache")

    def __init__(self, rules: Iterable[RewriteRule]) -> None:
        self.rules: List[RewriteRule] = list(rules)
        #: (sys, fd) -> [(priority, rule)] for pinned-fd first patterns.
        self._exact: Dict[Tuple[str, int], List[Tuple[int, RewriteRule]]] = {}
        #: sys -> [(priority, rule)] for wildcard-fd first patterns.
        self._wild: Dict[str, List[Tuple[int, RewriteRule]]] = {}
        #: (sys, fd) -> merged candidate tuple, filled on first lookup.
        self._cache: Dict[Tuple[str, int], Tuple[Candidate, ...]] = {}
        for priority, rule in enumerate(self.rules):
            first = rule.pattern[0]
            if first.fd == ANY_FD:
                self._wild.setdefault(first.name._value_, []) \
                    .append((priority, rule))
            else:
                self._exact.setdefault((first.name._value_, first.fd), []) \
                    .append((priority, rule))

    def candidates(self, record: SyscallRecord) -> Tuple[Candidate, ...]:
        """``(rule, guard, pattern)`` for the rules whose first pattern
        could match ``record``, in priority order.  Everything else provably
        neither fires nor stays viable.

        Only a pinned-fd bucket makes the answer depend on the fd, so a
        ``(sys, fd)`` without one shares the tuple cached under ``(sys,
        ANY_FD)``: a new client fd builds nothing its syscall already has.
        """
        sys = record.name._value_
        key = (sys, record.fd)
        cached = self._cache.get(key)
        if cached is None:
            exact = self._exact.get(key)
            wild = self._wild.get(sys, [])
            if exact:
                cached = _candidate_tuple(sorted(exact + wild))
            else:
                wild_key = (sys, ANY_FD)
                cached = self._cache.get(wild_key)
                if cached is None:
                    cached = self._cache[wild_key] = _candidate_tuple(wild)
            self._cache[key] = cached
        return cached


class RuleSet:
    """The rules registered for one update pair, both directions, shared
    by every holder of the pair (:func:`repro.mve.dsl.parser.rule_set`).
    Each stage's :class:`DispatchIndex` is built once, on first use."""

    def __init__(self, rules: Iterable[RewriteRule] = ()) -> None:
        self._rules: Tuple[RewriteRule, ...] = tuple(rules)
        self._indexes: Dict[str, DispatchIndex] = {}

    @property
    def rules(self) -> List[RewriteRule]:  # the caller's own list
        return list(self._rules)

    def add(self, rule: RewriteRule) -> "RuleSet":
        """Append ``rule`` to a set no index has been built for yet: a
        :meth:`shared` set, or one in use, refuses."""
        if self._indexes:
            raise RuleError(f"cannot add {rule.name!r}: the set is in use")
        self._rules += (rule,)
        return self

    def shared(self) -> "RuleSet":
        """Build every stage's index now and return the set, which from
        here on refuses :meth:`add`: other callers hold it."""
        for stage in (Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER):
            self._index(stage)
        return self

    def _index(self, stage: Direction) -> DispatchIndex:
        index = self._indexes.get(stage._value_)
        if index is None:
            index = self._indexes[stage._value_] = DispatchIndex(
                [r for r in self._rules if r.direction.active_in(stage)])
        return index

    def for_stage(self, stage: Direction) -> List[RewriteRule]:
        """Rules active in ``stage``, preserving priority order.

        The stage index's own list; do not mutate it.
        """
        return self._index(stage).rules

    def engine_for_stage(self, stage: Direction) -> "RuleEngine":
        """A fresh engine for ``stage`` over the stage's one dispatch
        index (a follower lane keeps it until the stage changes)."""
        return RuleEngine(self._index(stage))

    def count(self, stage: Direction = Direction.OUTDATED_LEADER) -> int:
        """Rule count for reporting (Table 1 counts outdated-leader rules)."""
        return len(self.for_stage(stage))

    def __len__(self) -> int:
        return len(self._rules)


class RuleEngine:
    """Rewrites a leader record stream into follower expectations.

    :meth:`rewrite` takes one whole iteration; :meth:`offer` and
    :meth:`flush` feed it a record at a time.  Either way the records go
    through one reduction loop, so both emit the same records and fire
    the same rules in the same order; rewritten records are drained
    with :meth:`take_ready` (or one by one with :meth:`next_expected`).
    The engine holds back a window of records that might still complete
    a multi-record pattern.  Dispatch is indexed: only rules whose first
    pattern is compatible with the window's head record are consulted,
    so records no rule targets pass straight through.
    """

    def __init__(self,
                 rules: Union[DispatchIndex, Iterable[RewriteRule]]) -> None:
        if isinstance(rules, DispatchIndex):
            self._index = rules
        else:
            self._index = DispatchIndex(rules)
        self.rules = self._index.rules
        self._window: List[SyscallRecord] = []
        self._ready: List[SyscallRecord] = []
        self.fired: List[str] = []

    def offer(self, record: SyscallRecord) -> None:
        """Feed one raw leader record into the engine."""
        window = self._window
        window.append(record)
        del window[:self._one_pass(window, len(window), False)]

    def flush(self) -> None:
        """No more records are coming soon; give up on partial matches."""
        window = self._window
        self._one_pass(window, len(window), True)
        window.clear()

    def rewrite(self, records: Sequence[SyscallRecord]) -> None:
        """:meth:`offer` each of ``records`` in turn, then :meth:`flush`
        — in one pass over the iteration."""
        window = self._window
        if window:
            records = window + list(records)
        self._one_pass(records, len(window), True)
        window.clear()

    def next_expected(self) -> Optional[SyscallRecord]:
        """Pop the next follower-expected record, if one is ready."""
        if self._ready:
            return self._ready.pop(0)
        return None

    def has_ready(self) -> bool:
        """True when :meth:`next_expected` would return a record."""
        return bool(self._ready)

    def take_ready(self) -> List[SyscallRecord]:
        """Drain every ready record at once (the bulk-replay fast path)."""
        out = self._ready
        self._ready = []
        return out

    def pending_window(self) -> int:
        """Records held back awaiting a possible multi-record match."""
        return len(self._window)

    def _one_pass(self, records: Sequence[SyscallRecord], visible: int,
                  final: bool) -> int:
        """The engine's one reduction loop.

        ``records[:visible]`` have been offered already; each later one
        is offered at the point where the window waits for more input,
        and once all are in, ``final`` flushes.  Returns how many
        records were consumed — all of them, unless a non-final call
        ends with a window a longer pattern might still complete.

        Pattern positions are tested in place, and a rule's action runs
        on its matched slice, so no frame is entered per record or per
        position but a guard's or an action's own.
        """
        ready = self._ready
        fired = self.fired
        index = self._index
        cache = index._cache
        end = len(records)
        start = 0
        while start < end:
            if start == visible:
                visible += 1  # the window is empty: offer the next record
            head = records[start]
            candidates = cache.get((head.name._value_, head.fd))
            if candidates is None:
                candidates = index.candidates(head)
            any_viable = False
            for rule, guard, pattern in candidates:
                if pattern is None:
                    # Single-record rule: only its guard is untested.
                    if guard is not None and not guard(head.data):
                        continue
                    consumed = 1
                else:
                    consumed = len(pattern)
                    stop = start + consumed
                    matched = True
                    for want, got in zip(pattern, records[
                            start:stop if stop <= visible else visible]):
                        if got.name is not want.name \
                                or (want.fd != ANY_FD and got.fd != want.fd) \
                                or (want.predicate is not None
                                    and not want.predicate(got.data)):
                            matched = False
                            break
                    if not matched:
                        continue
                    if stop > visible:
                        # Every record offered so far matches: a longer
                        # window might complete the pattern.
                        any_viable = True
                        continue
                rewritten = rule.action(records[start:start + consumed])
                if rewritten is None:
                    raise RuleError(f"rule {rule.name!r} action returned None")
                ready.extend(rewritten)
                fired.append(rule.name)
                start += consumed
                break
            else:  # no rule fired on the head record
                if any_viable and (visible < end or not final):
                    if visible == end:
                        return start  # wait for the next offer
                    visible += 1  # a longer pattern might still match
                    continue
                # Nothing can use the head record: pass it through.
                ready.append(head)
                start += 1
        return start
