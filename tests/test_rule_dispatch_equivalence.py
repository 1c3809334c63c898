"""Property test: indexed rule dispatch ≡ the naive reference engine.

The optimized :class:`~repro.mve.dsl.rules.RuleEngine` buckets rules by
their first pattern's dispatch key and skips rule evaluation entirely
for pass-through records.  Correctness rests on the argument that both
``matches_prefix`` and ``viable`` evaluate ``pattern[0]`` against
``window[0]``, so filtering candidates by first-position compatibility
is exact.  This test checks that argument empirically: random rule
catalogs offered random record streams must produce byte-identical
outputs and identical ``fired`` telemetry through both engines.
"""

from hypothesis import given, settings, strategies as st

from repro.mve.dsl.rules import (ANY_FD, DispatchIndex, RewriteRule,
                                 RuleEngine, SyscallPattern)
from repro.syscalls.model import EMPTY_AUX, Sys, SyscallRecord


class NaiveRuleEngine:
    """The pre-index engine: every rule probed against every window.

    A faithful copy of the original ``_reduce`` loop, kept here as the
    executable specification the dispatch index must agree with.
    """

    def __init__(self, rules):
        self.rules = list(rules)
        self._window = []
        self._ready = []
        self.fired = []

    def offer(self, record):
        self._window.append(record)
        self._reduce(flush=False)

    def flush(self):
        self._reduce(flush=True)

    def take_ready(self):
        ready, self._ready = self._ready, []
        return ready

    def _reduce(self, flush):
        while self._window:
            fired = False
            any_viable = False
            for rule in self.rules:
                if rule.matches_prefix(self._window):
                    consumed = len(rule.pattern)
                    self._ready.extend(rule.apply(self._window))
                    del self._window[:consumed]
                    self.fired.append(rule.name)
                    fired = True
                    break
                if rule.viable(self._window):
                    any_viable = True
            if fired:
                continue
            if any_viable and not flush:
                return
            self._ready.append(self._window.pop(0))


# A deliberately tiny vocabulary so patterns and records collide often —
# collisions are where dispatch shortcuts could diverge from the spec.
_SYSCALLS = [Sys.READ, Sys.WRITE, Sys.CLOSE]
_FDS = [ANY_FD, 3, 4]
_PAYLOADS = [b"", b"a", b"ab", b"b"]

_records = st.lists(
    st.builds(SyscallRecord,
              name=st.sampled_from(_SYSCALLS),
              fd=st.sampled_from([3, 4, 5]),
              data=st.sampled_from(_PAYLOADS),
              # hypothesis treats every NamedTuple field as required.
              result=st.none(),
              aux=st.just(EMPTY_AUX)),
    max_size=30)


def _predicate_for(prefix):
    if prefix is None:
        return None
    return lambda data: data.startswith(prefix)


_patterns = st.builds(
    lambda name, fd, prefix: SyscallPattern(name, fd, _predicate_for(prefix)),
    st.sampled_from(_SYSCALLS),
    st.sampled_from(_FDS),
    st.sampled_from([None, b"a", b"ab"]))


def _make_rule(index, pattern_list, retag):
    def action(records):
        expected = list(records)
        if retag:  # distinguishable output so rule identity is observable
            head = expected[0]
            expected[0] = SyscallRecord(head.name, head.fd,
                                        head.data + b"!%d" % index,
                                        head.result, head.aux)
        return expected
    return RewriteRule(f"rule-{index}", tuple(pattern_list), action)


_rules = st.lists(
    st.builds(lambda patterns, retag: (patterns, retag),
              st.lists(_patterns, min_size=1, max_size=3),
              st.booleans()),
    max_size=8).map(lambda specs: [_make_rule(i, patterns, retag)
                                   for i, (patterns, retag)
                                   in enumerate(specs)])


@settings(max_examples=300, deadline=None)
@given(_rules, _records, st.booleans())
def test_indexed_engine_matches_naive_reference(rules, records, flush):
    indexed = RuleEngine(DispatchIndex(rules))
    naive = NaiveRuleEngine(rules)
    for record in records:
        indexed.offer(record)
        naive.offer(record)
    if flush:
        indexed.flush()
        naive.flush()
    assert indexed.fired == naive.fired
    indexed_out = [(r.name, r.fd, r.data) for r in indexed.take_ready()]
    naive_out = [(r.name, r.fd, r.data) for r in naive.take_ready()]
    assert indexed_out == naive_out
    assert indexed.pending_window() == len(naive._window)


@given(_rules, _records)
def test_incremental_drain_matches_bulk_drain(rules, records):
    """next_expected() one-by-one sees the same stream as take_ready()."""
    incremental = RuleEngine(DispatchIndex(rules))
    bulk = RuleEngine(DispatchIndex(rules))
    drained = []
    for record in records:
        incremental.offer(record)
        bulk.offer(record)
        while incremental.has_ready():
            drained.append(incremental.next_expected())
    incremental.flush()
    bulk.flush()
    while incremental.has_ready():
        drained.append(incremental.next_expected())
    assert [r.key() for r in drained] == [r.key() for r in bulk.take_ready()]


# -- one crowded bucket ---------------------------------------------------------------
# Single-record rules take a fast path inside the bucket (only their
# guard is evaluated); multi-record rules keep the sequence machinery.
# The catalogues below force both kinds into the *same* bucket — every
# rule's first pattern is a READ, pinned to fd 3 or wildcard — at
# interleaved priorities, over streams that are mostly READs on fd 3.

_bucket_rule = st.tuples(
    st.sampled_from([ANY_FD, 3]),                  # first pattern's fd
    st.sampled_from([None, b"a", b"ab", b"b"]),    # first pattern's guard
    st.sampled_from([None, Sys.READ, Sys.WRITE]),  # second pattern, if any
    st.sampled_from([None, b"a"]),                 # its guard
    st.booleans())                                 # retag the head?


def _bucket_rules(specs):
    rules = []
    for index, (fd, guard, second, second_guard, retag) in enumerate(specs):
        patterns = [SyscallPattern(Sys.READ, fd, _predicate_for(guard))]
        if second is not None:
            patterns.append(SyscallPattern(second, ANY_FD,
                                           _predicate_for(second_guard)))
        rules.append(_make_rule(index, patterns, retag))
    return rules


_bucket_records = st.lists(
    st.builds(SyscallRecord,
              name=st.sampled_from([Sys.READ, Sys.READ, Sys.WRITE]),
              fd=st.sampled_from([3, 3, 4]),
              data=st.sampled_from(_PAYLOADS),
              result=st.none(),
              aux=st.just(EMPTY_AUX)),
    max_size=20)


@settings(max_examples=300, deadline=None)
@given(st.lists(_bucket_rule, min_size=2, max_size=10).map(_bucket_rules),
       _bucket_records, st.booleans())
def test_mixed_single_and_sequence_rules_in_one_bucket(rules, records,
                                                       flush):
    indexed = RuleEngine(DispatchIndex(rules))
    naive = NaiveRuleEngine(rules)
    for record in records:
        indexed.offer(record)
        naive.offer(record)
        # Record by record, not just at the end: a single-record rule
        # that fires early must not strand a viable sequence rule.
        assert indexed.fired == naive.fired
        assert indexed.pending_window() == len(naive._window)
    if flush:
        indexed.flush()
        naive.flush()
    assert indexed.fired == naive.fired
    assert indexed.take_ready() == naive.take_ready()
    assert indexed.pending_window() == len(naive._window)


def test_single_record_match_fires_past_a_viable_sequence_rule():
    """The engine fires the first rule that *matches*; a higher-priority
    two-record rule that is merely viable does not hold the window back
    (naive engine and fast path alike), and wins only once it matches."""
    pair = RewriteRule(
        "pair", (SyscallPattern(Sys.READ, 3), SyscallPattern(Sys.WRITE)),
        lambda records: [records[0]])
    single = RewriteRule(
        "single", (SyscallPattern(Sys.READ, ANY_FD, lambda d: d == b"a"),),
        lambda records: [records[0].with_data(b"A")])
    streams = {
        # The guard holds: "single" fires on the lone READ either way.
        b"a": {"pair-first": ["single"], "single-first": ["single"]},
        # The guard fails: only the sequence rule can use the READ.
        b"b": {"pair-first": ["pair"], "single-first": ["pair"]},
    }
    for payload, outcomes in streams.items():
        for order, fired in outcomes.items():
            rules = [pair, single] if order == "pair-first" \
                else [single, pair]
            engine = RuleEngine(DispatchIndex(rules))
            naive = NaiveRuleEngine(rules)
            for record in (SyscallRecord(Sys.READ, 3, payload),
                           SyscallRecord(Sys.WRITE, 3, b"+OK")):
                engine.offer(record)
                naive.offer(record)
            engine.flush()
            naive.flush()
            assert engine.fired == naive.fired == fired
            assert engine.take_ready() == naive.take_ready()
