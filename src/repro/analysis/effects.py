"""Effect summaries and the abstract rewrite engine (prover front end).

The MVE8xx prover (:mod:`repro.analysis.prover`) reasons about rewrite
rules without running servers.  This module supplies its two ingredients:

* a **protocol model** of one update pair — the finite set of *command
  classes* a client could send (the union of both versions' command
  vocabularies, plus verbs referenced only by rule match literals, plus
  one unknown-command class) with representative probe payloads per
  class (:func:`probe_lines`; :mod:`repro.analysis.coverage` asks
  :func:`read_covers` over the same probes, so the two analyzers agree
  on what "covered" means);
* an **abstract rewrite engine** — a re-implementation of
  :meth:`repro.mve.dsl.rules.RuleEngine._reduce` over *abstract* records
  whose payloads are either finite representative sets or opaque dynamic
  responses.  Predicates are evaluated concretely on representatives
  (exceptions count as no-match, exactly like the coverage analyzer), so
  a pattern match is three-valued: NO / MUST / MAY.  MAY matches branch:
  the engine returns *every* reachable outcome, which is what makes the
  state-space exploration an over-approximation of the concrete engine —
  the property the differential test in ``tests/test_prover.py`` checks.

Rule *effects* are computed by running the rule's real action over
concrete representative records (dynamic positions get sentinel
payloads), then re-abstracting the output — so effect summaries can
never drift from the action code the runtime executes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.dsu.version import ServerVersion
from repro.mve.dsl.rules import ANY_FD, RewriteRule, SyscallPattern
from repro.syscalls.model import Sys, SyscallRecord

#: Logical fd the abstract client connection uses.  Any positive value
#: works: patterns pinning a *negative* pseudo-fd (e.g. the Redis AOF
#: rules' ``fd=-3``) must not match client traffic, and wildcard
#: patterns match regardless.
CLIENT_FD = 5

#: The class of requests whose verb neither version understands.
UNKNOWN_CLASS = "<unknown>"

#: Tri-state pattern match results.
NO, MUST, MAY = 0, 1, 2

#: Payload tags (first element of an :class:`ARecord` payload tuple).
REPS = "reps"    # ("reps", (bytes, ...)) — finite representative set
RESP = "resp"    # ("resp", version, class, accepted) — dynamic response
ANY = "any"      # ("any",) — wildcard, compares equal to anything

_VERB_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")

#: Branch/step budgets keeping reduction deterministic *and* bounded.
MAX_REDUCE_STEPS = 512


def probe_lines(command: str) -> Tuple[bytes, ...]:
    """The representative payloads for one command class: the verb with
    zero to three arguments."""
    head = command.encode("latin-1")
    return tuple(head + suffix for suffix in
                 (b"\r\n", b" a\r\n", b" a b\r\n", b" a b c\r\n"))


def safe_pred(predicate, data: bytes) -> bool:
    """``predicate(data)``, a raise counting as no match."""
    try:
        return bool(predicate(data))
    except Exception:
        return False


def literal_verbs(rule: RewriteRule) -> Iterator[str]:
    """The command verbs a DSL rule's READ match literals name, one per
    ``eq``/``startswith`` condition whose literal opens with a verb."""
    ast = rule.ast
    if ast is None:
        return
    for match in ast.matches:
        if match.syscall is not Sys.READ:
            continue
        for cond in ast.conditions_for(match.data_var):
            if cond.op not in ("eq", "startswith"):
                continue
            token = cond.literal.decode("latin-1").split()
            if token and _VERB_RE.match(token[0]):
                yield token[0]


@dataclass(frozen=True)
class ARecord:
    """One abstract syscall record.

    ``payload`` is a tagged tuple (:data:`REPS` / :data:`RESP` /
    :data:`ANY`); records are hashable so explored configurations can be
    deduplicated.
    """

    kind: Sys
    fd: int
    payload: Tuple

    def is_dynamic(self) -> bool:
        return self.payload[0] != REPS

    def reps(self) -> Tuple[bytes, ...]:
        assert self.payload[0] == REPS
        return self.payload[1]


def read_record(reps: Sequence[bytes]) -> ARecord:
    return ARecord(Sys.READ, CLIENT_FD, (REPS, tuple(reps)))


def resp_record(version: str, cls: str, accepted: Optional[bool]) -> ARecord:
    return ARecord(Sys.WRITE, CLIENT_FD, (RESP, version, cls, accepted))


class ProtocolModel:
    """The finite per-pair request alphabet and acceptance predicate."""

    def __init__(self, old_version: ServerVersion,
                 new_version: ServerVersion,
                 rules: Sequence[RewriteRule]) -> None:
        self.old_name = old_version.name
        self.new_name = new_version.name
        self.old_vocab: FrozenSet[str] = frozenset(old_version.commands())
        self.new_vocab: FrozenSet[str] = frozenset(new_version.commands())
        self.old_texts: FrozenSet[bytes] = frozenset(
            old_version.response_texts())
        self.new_texts: FrozenSet[bytes] = frozenset(
            new_version.response_texts())
        # A rule guarding on a verb outside both vocabularies still
        # deserves a probe class, so dead rules (MVE803) and overlapping
        # rules (MVE804) are observable.
        literal = {verb for rule in rules for verb in literal_verbs(rule)}
        self.classes: Tuple[str, ...] = tuple(
            sorted(self.old_vocab | self.new_vocab | literal)
            + [UNKNOWN_CLASS])
        self.probes: Dict[str, Tuple[bytes, ...]] = {
            cls: probe_lines(cls if cls != UNKNOWN_CLASS else "NOCMD")
            for cls in self.classes}
        self._verbs = frozenset(self.classes) - {UNKNOWN_CLASS}

    def accepts(self, version: str, cls: str) -> bool:
        vocab = self.old_vocab if version == self.old_name else self.new_vocab
        return cls in vocab

    def texts_of(self, version: str) -> FrozenSet[bytes]:
        return self.old_texts if version == self.old_name else self.new_texts

    def classify(self, line: bytes) -> str:
        """Which class a concrete request payload belongs to."""
        verb = line.split()[0].decode("latin-1") if line.split() else ""
        return verb if verb in self._verbs else UNKNOWN_CLASS


# ---------------------------------------------------------------------------
# Tri-state matching
# ---------------------------------------------------------------------------


def match_one(pattern: SyscallPattern, record: ARecord):
    """Match one pattern position against one abstract record.

    Returns ``(state, yes_reps, no_reps, dynamic)``: the tri-state, the
    representative partition for REPS payloads (None otherwise), and
    whether a MAY verdict came from an opaque dynamic payload.
    """
    if record.kind is not pattern.name:
        return NO, None, None, False
    if pattern.fd != ANY_FD and pattern.fd != record.fd:
        return NO, None, None, False
    tag = record.payload[0]
    if tag == ANY:
        return MAY, None, None, True
    if pattern.predicate is None:
        return MUST, None, None, False
    if tag == RESP:
        return MAY, None, None, True
    reps = record.payload[1]
    yes = tuple(r for r in reps if safe_pred(pattern.predicate, r))
    no = tuple(r for r in reps if r not in yes)
    if not yes:
        return NO, None, None, False
    if not no:
        return MUST, None, None, False
    return MAY, yes, no, False


def match_prefix(rule: RewriteRule, window: Sequence[ARecord]):
    """Full-prefix tri-state match (requires ``len(window) >= pattern``).

    Returns ``(state, yes_window, no_window, dynamic)`` where the yes
    window constrains MAY representative sets to the matching subset and
    the no window complements the *first* REPS-MAY position (a sound
    over-approximation when several positions are uncertain).
    """
    n = len(rule.pattern)
    assert len(window) >= n
    state = MUST
    yes_window = list(window)
    no_window = list(window)
    complemented = False
    dynamic = False
    for i, pattern in enumerate(rule.pattern):
        s, yes, no, dyn = match_one(pattern, window[i])
        if s == NO:
            return NO, None, None, False
        if s == MAY:
            state = MAY
            dynamic = dynamic or dyn
            if yes is not None:
                yes_window[i] = ARecord(window[i].kind, window[i].fd,
                                        (REPS, yes))
                if not complemented:
                    no_window[i] = ARecord(window[i].kind, window[i].fd,
                                           (REPS, no))
                    complemented = True
    return state, tuple(yes_window), tuple(no_window), dynamic


def match_viable(rule: RewriteRule, window: Sequence[ARecord]) -> int:
    """Tri-state :meth:`RewriteRule.viable` (window shorter than pattern)."""
    state = MUST
    for pattern, record in zip(rule.pattern, window):
        s, _, _, _ = match_one(pattern, record)
        if s == NO:
            return NO
        if s == MAY:
            state = MAY
    return state


# ---------------------------------------------------------------------------
# Effect application: run the real action over representatives
# ---------------------------------------------------------------------------


def _sentinel(i: int) -> bytes:
    return b"\xff\x00<sym:%d>" % i


def apply_rule(rule: RewriteRule,
               window: Sequence[ARecord]) -> Tuple[ARecord, ...]:
    """The rule's abstract effect on the matched window prefix.

    Concrete representative records are built (dynamic positions get
    sentinels), the rule's real action runs over them, and outputs are
    re-abstracted: a sentinel propagates the input payload, wildcard aux
    becomes :data:`ANY`, anything else is collected as representatives.
    If the action misbehaves (raises, or changes shape across
    representatives) the matched records pass through unchanged — a
    sound "identity effect" fallback.
    """
    n = len(rule.pattern)
    matched = list(window[:n])
    iter_pos = next((i for i, r in enumerate(matched)
                     if not r.is_dynamic() and len(r.reps()) > 1), None)
    variants: List[List[SyscallRecord]] = []
    iter_reps = (matched[iter_pos].reps() if iter_pos is not None
                 else (None,))
    for rep in iter_reps:
        concrete = []
        for i, rec in enumerate(matched):
            if i == iter_pos:
                data = rep
            elif rec.is_dynamic():
                data = _sentinel(i)
            else:
                data = rec.reps()[0]
            concrete.append(SyscallRecord(rec.kind, fd=rec.fd, data=data,
                                          result=len(data)))
        try:
            out = rule.apply(concrete)
        except Exception:
            return tuple(matched)
        variants.append(out)
    shape = [(r.name, r.fd) for r in variants[0]]
    if any([(r.name, r.fd) for r in v] != shape for v in variants[1:]):
        return tuple(matched)
    outputs: List[ARecord] = []
    sentinels = {_sentinel(i): matched[i]
                 for i, rec in enumerate(matched) if rec.is_dynamic()}
    for pos, (kind, fd) in enumerate(shape):
        datas = [v[pos].data for v in variants]
        aux = variants[0][pos].aux
        if aux and aux.get("wildcard"):
            outputs.append(ARecord(kind, fd, (ANY,)))
        elif datas[0] in sentinels and all(d == datas[0] for d in datas):
            src = sentinels[datas[0]]
            outputs.append(ARecord(kind, fd, src.payload))
        else:
            uniq = tuple(dict.fromkeys(datas))
            outputs.append(ARecord(kind, fd, (REPS, uniq)))
    return tuple(outputs)


# ---------------------------------------------------------------------------
# The abstract engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """One reachable result of reducing a window through the rules."""

    emitted: Tuple[ARecord, ...]
    window: Tuple[ARecord, ...]
    fired: Tuple[str, ...]
    degraded: bool = False


@dataclass(frozen=True)
class OverlapEvent:
    """Two rules that can both fully match the same window with
    different effects — the engine picks by priority, so the outcome
    depends on rule order (MVE804)."""

    first: str
    second: str


def _scan_overlaps(rules: Sequence[RewriteRule],
                   window: Tuple[ARecord, ...], sink: set) -> None:
    full = []
    for rule in rules:
        if len(window) < len(rule.pattern):
            continue
        state, yes_win, _, dynamic = match_prefix(rule, window)
        if state == NO or dynamic:
            # Dynamic-payload MAY matches are too speculative to call a
            # conflict (every write-predicate rule MAY-matches every
            # dynamic response); only representative-backed matches count.
            continue
        full.append((rule, yes_win))
    for i in range(len(full)):
        for j in range(i + 1, len(full)):
            (rule_a, win_a), (rule_b, win_b) = full[i], full[j]
            effect_a = (apply_rule(rule_a, win_a), len(rule_a.pattern))
            effect_b = (apply_rule(rule_b, win_b), len(rule_b.pattern))
            if effect_a != effect_b:
                sink.add(OverlapEvent(rule_a.name, rule_b.name))


def reduce_abstract(rules: Sequence[RewriteRule],
                    window: Sequence[ARecord], *, flush: bool,
                    overlap_sink: Optional[set] = None) -> List[Outcome]:
    """All reachable outcomes of :meth:`RuleEngine._reduce`.

    Mirrors the concrete loop head-record by head-record: a MUST match
    fires deterministically, a MAY match branches into fired /
    not-fired continuations, and viability (window shorter than the
    pattern) yields a "wait" outcome unless ``flush`` is set.
    """
    outcomes: List[Outcome] = []
    seen = set()
    stack = [((), tuple(window), ())]
    steps = 0
    while stack:
        emitted, win, fired = stack.pop()
        steps += 1
        if steps > MAX_REDUCE_STEPS:
            _push(outcomes, seen, Outcome(emitted + win, (), fired, True))
            continue
        if not win:
            _push(outcomes, seen, Outcome(emitted, (), fired))
            continue
        if overlap_sink is not None:
            _scan_overlaps(rules, win, overlap_sink)
        # One iteration of the engine's while-window loop, branched.
        live = [(win, False)]  # (refined window, any_viable)
        for rule in rules:
            next_live = []
            for cur, viable in live:
                if len(cur) >= len(rule.pattern):
                    state, yes_win, no_win, _ = match_prefix(rule, cur)
                    if state != NO:
                        out = apply_rule(rule, yes_win)
                        rest = yes_win[len(rule.pattern):]
                        stack.append((emitted + out, rest,
                                      fired + (rule.name,)))
                    if state == MUST:
                        continue  # this branch fired; it does not survive
                    if state == MAY:
                        next_live.append((no_win, viable))
                    else:
                        next_live.append((cur, viable))
                else:
                    if match_viable(rule, cur) != NO:
                        viable = True
                    next_live.append((cur, viable))
            live = next_live
            if not live:
                break
        for cur, viable in live:
            if viable and not flush:
                _push(outcomes, seen, Outcome(emitted, cur, fired))
            else:
                stack.append((emitted + cur[:1], cur[1:], fired))
    return outcomes


def _push(outcomes: List[Outcome], seen: set, outcome: Outcome) -> None:
    if outcome not in seen:
        seen.add(outcome)
        outcomes.append(outcome)


def read_covers(rule: RewriteRule, probes: Sequence[bytes]) -> bool:
    """Does the rule's leading READ pattern match any probe?  Each probe
    is asked on its own, so a guard that raises on one still covers
    through another.  Coverage (MVE201) asks this; so does the prover —
    a rule whose multi-record footprint goes beyond the request/response
    abstraction still *anchors* its command class through its leading
    read."""
    if not rule.pattern or rule.pattern[0].name is not Sys.READ:
        return False
    predicate = rule.pattern[0].predicate
    if predicate is None:
        return True
    return any(safe_pred(predicate, line) for line in probes)
