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
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Callable,
    Deque,
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

    def matches_prefix(self, records: Sequence[SyscallRecord]) -> bool:
        """Full match against the first ``len(pattern)`` records."""
        if len(records) < len(self.pattern):
            return False
        return all(p.matches(r) for p, r in zip(self.pattern, records))

    def viable(self, records: Sequence[SyscallRecord]) -> bool:
        """Could this rule still match once more records arrive?

        True when every record seen so far matches the corresponding
        pattern position (the window may be shorter than the pattern).
        """
        return all(p.matches(r) for p, r in zip(self.pattern, records))

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


#: Guard marking a candidate whose pattern spans several records.
_SEQUENCE = object()

#: One dispatch candidate: the rule and its single-record guard.
Candidate = Tuple[RewriteRule, Any]


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
    (or None) is all that is left to test; multi-record rules carry
    :data:`_SEQUENCE` and go through ``matches_prefix``/``viable``.

    Immutable once built; shareable across engines (see
    :meth:`RuleSet.engine_for_stage`).  The tables are keyed by the
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
        """``(rule, guard)`` for the rules whose first pattern could
        match ``record``, in priority order.  Everything else provably
        neither fires nor stays viable."""
        sys = record.name._value_
        key = (sys, record.fd)
        cached = self._cache.get(key)
        if cached is None:
            wild = self._wild.get(sys, [])
            exact = ([] if record.fd == ANY_FD
                     else self._exact.get(key, []))
            merged = sorted(exact + wild) if exact else wild
            cached = tuple(
                (rule, rule.pattern[0].predicate if len(rule.pattern) == 1
                 else _SEQUENCE)
                for _, rule in merged)
            self._cache[key] = cached
        return cached


@dataclass
class RuleSet:
    """The rules registered for one update pair, both directions."""

    rules: List[RewriteRule] = field(default_factory=list)
    #: stage -> (rule count at compute time, filtered rules).  Keyed on
    #: the count so direct ``rules`` appends also invalidate.
    _stage_cache: Dict[Direction, Tuple[int, List[RewriteRule]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: stage value -> (rule count at compute time, shared dispatch
    #: index); by ``_value_`` for the reason :class:`DispatchIndex` is.
    _index_cache: Dict[str, Tuple[int, DispatchIndex]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, rule: RewriteRule) -> "RuleSet":
        self.rules.append(rule)
        self._stage_cache.clear()
        self._index_cache.clear()
        return self

    def for_stage(self, stage: Direction) -> List[RewriteRule]:
        """Rules active in ``stage``, preserving priority order.

        Memoized; do not mutate the returned list.
        """
        cached = self._stage_cache.get(stage)
        if cached is not None and cached[0] == len(self.rules):
            return cached[1]
        result = [r for r in self.rules if r.direction.active_in(stage)]
        self._stage_cache[stage] = (len(self.rules), result)
        return result

    def engine_for_stage(self, stage: Direction) -> "RuleEngine":
        """A fresh engine for ``stage`` backed by a cached dispatch index.

        The index build is O(rules); replaying one iteration is not —
        so the runtime asks for a new engine per iteration and this
        method amortises the index across all of them.
        """
        cached = self._index_cache.get(stage._value_)
        if cached is not None and cached[0] == len(self.rules):
            index = cached[1]
        else:
            index = DispatchIndex(self.for_stage(stage))
            self._index_cache[stage._value_] = (len(self.rules), index)
        return RuleEngine(index)

    def count(self, stage: Direction = Direction.OUTDATED_LEADER) -> int:
        """Rule count for reporting (Table 1 counts outdated-leader rules)."""
        return len(self.for_stage(stage))

    def __len__(self) -> int:
        return len(self.rules)


class RuleEngine:
    """Lazily rewrites a leader record stream into follower expectations.

    Fed raw leader records via :meth:`offer`; emits transformed records
    via :meth:`next_expected` (or in bulk via :meth:`take_ready`).
    Maintains a window of records that might still complete a
    multi-record pattern.  Dispatch is indexed: only rules whose first
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
        self._window: Deque[SyscallRecord] = deque()
        self._ready: Deque[SyscallRecord] = deque()
        self.fired: List[str] = []

    def offer(self, record: SyscallRecord) -> None:
        """Feed one raw leader record into the engine."""
        self._window.append(record)
        self._reduce(flush=False)

    def flush(self) -> None:
        """No more records are coming soon; give up on partial matches."""
        self._reduce(flush=True)

    def next_expected(self) -> Optional[SyscallRecord]:
        """Pop the next follower-expected record, if one is ready."""
        if self._ready:
            return self._ready.popleft()
        return None

    def has_ready(self) -> bool:
        """True when :meth:`next_expected` would return a record."""
        return bool(self._ready)

    def take_ready(self) -> List[SyscallRecord]:
        """Drain every ready record at once (the bulk-replay fast path)."""
        out = list(self._ready)
        self._ready.clear()
        return out

    def pending_window(self) -> int:
        """Records held back awaiting a possible multi-record match."""
        return len(self._window)

    def _reduce(self, flush: bool) -> None:
        window = self._window
        ready = self._ready
        candidates_for = self._index.candidates
        while window:
            head = window[0]
            candidates = candidates_for(head)
            if not candidates:
                # No rule targets this record: pass it through.
                ready.append(window.popleft())
                continue
            fired = False
            any_viable = False
            window_len = len(window)
            for rule, guard in candidates:
                if guard is not _SEQUENCE:
                    # Single-record rule: only its predicate is untested.
                    if guard is not None and not guard(head.data):
                        continue
                    consumed = 1
                elif rule.matches_prefix(window):
                    consumed = len(rule.pattern)
                else:
                    # With window >= pattern, viable() would just repeat
                    # the failed matches_prefix(); only shorter windows
                    # can grow into a match.
                    if window_len < len(rule.pattern) \
                            and rule.viable(window):
                        any_viable = True
                    continue
                ready.extend(rule.apply(window))
                for _ in range(consumed):
                    window.popleft()
                self.fired.append(rule.name)
                fired = True
                break
            if fired:
                continue
            if any_viable and not flush:
                # A longer pattern might still match; wait for more input.
                return
            # Nothing can use the head record: pass it through.
            ready.append(window.popleft())

