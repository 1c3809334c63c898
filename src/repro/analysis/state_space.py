"""Worklist exploration of the cross-version protocol state space.

For one update pair and one MVE stage, the explorer enumerates every
reachable *configuration* — the abstract engine's pending rule window
plus the follower's outstanding response queue — under all command
classes a client could send, with both iteration-boundary choices
(continue batching records into the current iteration, or flush — the
runtime rewrites and flushes each iteration on its own, so the flush
edge models the ``repro.mve.varan.rewrite_iteration`` boundary).  BFS
with parent pointers yields shortest divergence witnesses;
configuration hashing plus bounded-window/queue widening makes the
fixpoint deterministic and terminating.

A transition diverges when the follower-side comparison fails:

* **acceptance asymmetry** — one version executes the command, the
  other rejects it, so their response records cannot agree;
* **static text mismatch** — the expected stream carries literal text
  (from a rule effect) the follower version can never produce.

Both-accept / both-reject pairs are assumed compatible: rewrite rules
are the programmer's assertion that related states answer alike, and
the witness replay (:mod:`repro.analysis.witness`) validates that
assumption dynamically instead of the prover guessing statically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.effects import (ANY, RESP, ARecord, OverlapEvent,
                                    ProtocolModel, read_covers,
                                    read_record, reduce_abstract,
                                    resp_record)
from repro.dsu.version import ServerVersion
from repro.mve.dsl.rules import Direction, RewriteRule, RuleSet
from repro.syscalls.model import Sys

#: Widening bounds: configurations beyond these are folded back.
WINDOW_CAP = 8
QUEUE_CAP = 4

#: Exploration cutoff recorded in the certificate when hit.
MAX_CONFIGS = 4000


@dataclass(frozen=True)
class Config:
    """One explored (pending-window, follower-queue) configuration."""

    window: Tuple[ARecord, ...] = ()
    queue: Tuple[Tuple, ...] = ()  # follower RESP payload tuples


@dataclass(frozen=True)
class Step:
    """One BFS edge: the command class driven and how the iteration
    ended (``flush`` False means the next command batches into the same
    leader iteration)."""

    cls: str
    rep: bytes
    flush: bool


@dataclass
class Divergence:
    """One divergence discovered during exploration."""

    stage: Direction
    cls: str
    kind: str  # "accept-asymmetry" | "text-mismatch"
    fired: Tuple[str, ...]
    path: Tuple[Step, ...]
    detail: str


@dataclass
class StageStats:
    """Deterministic exploration statistics for the certificate."""

    stage: Direction
    configs: int = 0
    transitions: int = 0
    widened: int = 0
    truncated: bool = False
    degraded: bool = False
    fired: Set[str] = field(default_factory=set)
    anchored: Set[str] = field(default_factory=set)
    overlaps: Set[OverlapEvent] = field(default_factory=set)


@dataclass
class Exploration:
    """Everything one (pair, stage) exploration produced."""

    divergences: List[Divergence]
    stats: StageStats


def _preferred_rep(reps: Sequence[bytes]) -> bytes:
    """The probe shown in witnesses: prefer ``cmd a b`` (a verb with
    arguments exercises the command for real) over the bare verb."""
    by_tokens = sorted(reps, key=lambda r: (abs(len(r.split()) - 3),
                                            len(r), r))
    return by_tokens[0] if by_tokens else b"\r\n"


def _leader_follower(model: ProtocolModel, stage: Direction):
    if stage is Direction.OUTDATED_LEADER:
        return model.old_name, model.new_name
    return model.new_name, model.old_name


def _consume(model: ProtocolModel, follower: str,
             emitted: Sequence[ARecord], queue: Tuple[Tuple, ...]):
    """Run the follower-side comparison over an emitted expected stream.

    Returns a list of ``(queue', divergence, last_read_reps)`` branches
    (reads whose representatives straddle classes branch per class).
    """
    results = []
    work = [(0, queue, None)]
    while work:
        index, q, last_reps = work.pop()
        diverged: Optional[Tuple[str, str]] = None
        while index < len(emitted):
            rec = emitted[index]
            index += 1
            tag = rec.payload[0]
            if rec.kind is Sys.READ:
                if tag == ANY:
                    continue
                if tag == RESP:
                    # A response fed back as input: acceptance unknown.
                    q = q + ((RESP, follower, rec.payload[2], None),)
                    continue
                groups: Dict[str, List[bytes]] = {}
                for rep in rec.reps():
                    groups.setdefault(model.classify(rep), []).append(rep)
                classes = sorted(groups)
                for extra in classes[1:]:
                    work.append((index, q + ((RESP, follower, extra,
                                              model.accepts(follower,
                                                            extra)),),
                                 tuple(groups[extra])))
                cls = classes[0]
                last_reps = tuple(groups[cls])
                q = q + ((RESP, follower, cls,
                          model.accepts(follower, cls)),)
            elif rec.kind is Sys.WRITE:
                if tag == ANY:
                    q = q[1:] if q else q
                    continue
                if not q:
                    # Nothing of the follower's to compare against — a
                    # suppressing rule or an out-of-model write; lenient.
                    continue
                expect_q, q = q[0], q[1:]
                _, _, fcls, faccept = expect_q
                if tag == RESP:
                    accept_l = rec.payload[3]
                    if accept_l is None or faccept is None:
                        continue
                    if accept_l != faccept:
                        diverged = ("accept-asymmetry",
                                    f"leader response to "
                                    f"{rec.payload[2]!r} is "
                                    f"{'accepted' if accept_l else 'rejected'}"
                                    f" but the {follower} follower "
                                    f"{'accepts' if faccept else 'rejects'}"
                                    f" {fcls!r}")
                        break
                else:
                    texts = model.texts_of(follower)
                    if texts and not any(t in texts for t in rec.reps()):
                        diverged = ("text-mismatch",
                                    f"expected literal "
                                    f"{rec.reps()[0][:40]!r} which "
                                    f"{follower} never writes")
                        break
            # non-READ/WRITE records replay without data comparison here
        results.append((q, diverged, last_reps))
    return results


def explore(model: ProtocolModel, ruleset: RuleSet, stage: Direction,
            old_version: ServerVersion,
            new_version: ServerVersion) -> Exploration:
    """Explore every reachable configuration of one (pair, stage)."""
    rules: List[RewriteRule] = ruleset.for_stage(stage)
    leader, follower = _leader_follower(model, stage)
    stats = StageStats(stage=stage)
    divergences: List[Divergence] = []
    seen_div: Set[Tuple[str, str, bool]] = set()

    root = Config()
    parents: Dict[Config, Tuple[Optional[Config], Optional[Step]]] = {
        root: (None, None)}
    frontier = deque([root])
    stats.configs = 1

    def path_to(config: Config) -> Tuple[Step, ...]:
        steps: List[Step] = []
        cursor: Optional[Config] = config
        while cursor is not None:
            parent, step = parents[cursor]
            if step is not None:
                steps.append(step)
            cursor = parent
        return tuple(reversed(steps))

    while frontier:
        config = frontier.popleft()
        prefix = path_to(config)
        for cls in model.classes:
            stats.transitions += 1
            accept_l = model.accepts(leader, cls)
            incoming = (read_record(model.probes[cls]),
                        resp_record(leader, cls, accept_l))
            window = config.window + incoming
            for flush in (False, True):
                outcomes = reduce_abstract(rules, window, flush=flush,
                                           overlap_sink=stats.overlaps)
                for outcome in outcomes:
                    if outcome.degraded:
                        stats.degraded = True
                    stats.fired.update(outcome.fired)
                    for queue, diverged, last_reps in _consume(
                            model, follower, outcome.emitted, config.queue):
                        if diverged is not None:
                            kind, detail = diverged
                            key = (cls, kind, bool(outcome.fired))
                            if key not in seen_div:
                                seen_div.add(key)
                                # The witness step must carry the *input*
                                # command the client sends, not a
                                # post-rewrite rep: narrow to the class's
                                # own probes (a predicate partition keeps
                                # the diverging subset; a rewrite leaves
                                # nothing and falls back to the class).
                                probes = model.probes[cls]
                                reps = tuple(r for r in (last_reps or ())
                                             if r in probes) or probes
                                divergences.append(Divergence(
                                    stage=stage, cls=cls, kind=kind,
                                    fired=outcome.fired,
                                    path=prefix + (Step(
                                        cls, _preferred_rep(reps), True),),
                                    detail=detail))
                            continue
                        if flush:
                            successor = Config()
                        else:
                            new_window = outcome.window
                            if len(new_window) > WINDOW_CAP:
                                stats.widened += 1
                                new_window = new_window[-WINDOW_CAP:]
                            if len(queue) > QUEUE_CAP:
                                stats.widened += 1
                                queue = queue[-QUEUE_CAP:]
                            successor = Config(new_window, queue)
                        if successor not in parents:
                            if stats.configs >= MAX_CONFIGS:
                                stats.truncated = True
                                continue
                            parents[successor] = (config, Step(
                                cls, _preferred_rep(model.probes[cls]),
                                flush))
                            stats.configs += 1
                            frontier.append(successor)

    # Anchoring: a divergence with no fired rule is still covered when a
    # stage rule's leading READ matches the class — its full footprint
    # (OPEN/STAT/LISTEN records, noreply variants) lies outside the
    # request/response abstraction, exactly like the MVE201 convention.
    kept: List[Divergence] = []
    for div in divergences:
        if not div.fired and any(read_covers(rule, model.probes[div.cls])
                                 for rule in rules):
            stats.anchored.add(div.cls)
            continue
        kept.append(div)
    return Exploration(divergences=kept, stats=stats)


def unfired_rules(ruleset: RuleSet,
                  explorations: Sequence[Exploration]) -> List[RewriteRule]:
    """Rules that never fired in any explored stage (MVE803 input)."""
    fired: Set[str] = set()
    explored_stages = set()
    for exploration in explorations:
        fired.update(exploration.stats.fired)
        explored_stages.add(exploration.stats.stage)
    dead = []
    for rule in ruleset.rules:
        active = any(rule.direction.active_in(stage)
                     for stage in explored_stages)
        if active and rule.name not in fired:
            dead.append(rule)
    return dead


def fully_modeled(rule: RewriteRule) -> bool:
    """True when the abstract domain can represent the rule exactly:
    a DSL rule over wildcard-fd READ/WRITE records and no ``matches``
    guard.  Opaque predicates (a regular expression, or a rule built
    without the DSL) and pinned pseudo-fds sit outside the model, so a
    never-fired verdict for them is informational, not suspicious."""
    ast = getattr(rule, "ast", None)
    if ast is None or any(cond.op == "matches" for cond in ast.conditions):
        return False
    from repro.mve.dsl.rules import ANY_FD
    return all(p.name in (Sys.READ, Sys.WRITE) and p.fd == ANY_FD
               for p in rule.pattern)
