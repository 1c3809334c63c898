"""Every shipped rule is DSL text; these tests hold it to the
Python-built rule sets it replaced (``tests/reference_rules.py``).

The kvstore and Redis sets run through the full MVE stack with both
formulations and must give identical outcomes; every update pair of
``default_catalog()`` must rewrite generated leader streams the same
way under both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import default_catalog
from repro.errors import DslSyntaxError
from repro.mve import VaranRuntime
from repro.mve.dsl.parser import (CondAst, EmitAst, ExprAst, MatchAst,
                                  RuleAst, compile_rule, parse_rules)
from repro.mve.dsl.rules import ANY_FD, Direction
from repro.mve.varan import rewrite_iteration
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.servers.redis import RedisServer, redis_rules, redis_version
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import Sys, SyscallRecord
from repro.workloads import VirtualClient
from tests.reference_rules import REFERENCES, kv_reference, redis_reference


def run_kv_scenario(rules):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                           rules=rules)
    client = VirtualClient(kernel, server.address)
    client.command(runtime, b"PUT a 1")
    child = server.fork()
    child.apply_version(KVStoreV2(), xform_1_to_2(dict(child.heap)))
    runtime.fork_follower(0, server=child)
    replies = [
        client.command(runtime, b"PUT b 2", now=10**9),
        client.command(runtime, b"PUT-number pi 3", now=2 * 10**9),
        client.command(runtime, b"TYPE a", now=3 * 10**9),
        client.command(runtime, b"GET b", now=4 * 10**9),
    ]
    runtime.drain_follower()
    post_promote = []
    if runtime.follower is not None:
        runtime.promote(5 * 10**9)
        post_promote.append(
            client.command(runtime, b"PUT-string s v", now=6 * 10**9))
        runtime.drain_follower()
    return (replies, post_promote, runtime.last_divergence is None,
            sorted(set(runtime.rules_fired)),
            runtime.leader.server.heap)


def run_redis_scenario(rules):
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0"))
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["redis"],
                           rules=rules)
    client = VirtualClient(kernel, server.address)
    child = server.fork()
    child.apply_version(redis_version("2.0.1"), dict(child.heap))
    runtime.fork_follower(0, server=child)
    replies = [
        client.command(runtime, b"SET k v", now=10**9),
        client.command(runtime, b"GET k", now=2 * 10**9),
        client.command(runtime, b"LPUSH l x", now=3 * 10**9),
    ]
    runtime.drain_follower()
    post_promote = []
    if runtime.follower is not None:
        runtime.promote(4 * 10**9)
        post_promote.append(
            client.command(runtime, b"SET k2 w", now=5 * 10**9))
        runtime.drain_follower()
    return (replies, post_promote, runtime.last_divergence is None,
            runtime.leader.server.heap["db"])


class TestKvEquivalence:
    def test_same_outcomes(self):
        programmatic = run_kv_scenario(kv_reference("1.0", "2.0"))
        from_dsl = run_kv_scenario(kv_rules())
        assert programmatic[0] == from_dsl[0]   # replies
        assert programmatic[1] == from_dsl[1]   # post-promotion replies
        assert programmatic[2] and from_dsl[2]  # both divergence-free
        assert programmatic[4] == from_dsl[4]   # final leader heap

    def test_same_rule_counts(self):
        assert len(kv_reference("1.0", "2.0")) == len(kv_rules())


class TestRedisEquivalence:
    def test_same_outcomes(self):
        programmatic = run_redis_scenario(redis_reference("2.0.0", "2.0.1"))
        from_dsl = run_redis_scenario(redis_rules("2.0.0", "2.0.1"))
        assert programmatic[0] == from_dsl[0]
        assert programmatic[1] == from_dsl[1]
        assert programmatic[2] and from_dsl[2]
        assert programmatic[3] == from_dsl[3]

    def test_no_rules_for_other_pairs(self):
        assert len(redis_rules("2.0.1", "2.0.2")) == 0

    def test_dsl_rules_fire(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["redis"],
                               rules=redis_rules("2.0.0", "2.0.1"))
        client = VirtualClient(kernel, server.address)
        child = server.fork()
        child.apply_version(redis_version("2.0.1"), dict(child.heap))
        runtime.fork_follower(0, server=child)
        client.command(runtime, b"SET k v", now=10**9)
        runtime.drain_follower()
        assert "aof_order" in runtime.rules_fired
        assert runtime.last_divergence is None


# ---------------------------------------------------------------------------
# Compiled guards against the AST they were compiled from
# ---------------------------------------------------------------------------

OPS = ("eq", "ne", "startswith", "endswith", "contains")
literals = st.binary(max_size=6)
conditions = st.lists(
    st.builds(CondAst, st.sampled_from(OPS), st.just("s"), literals),
    min_size=1, max_size=3).map(tuple)


@st.composite
def guards_and_payloads(draw):
    """Conditions over one variable, and payloads built around their
    literals so that every op gets both verdicts."""
    conds = draw(conditions)
    literal = draw(st.sampled_from([c.literal for c in conds]))
    payloads = draw(st.lists(st.one_of(
        st.binary(max_size=12),
        st.tuples(st.binary(max_size=4), st.binary(max_size=4))
        .map(lambda ends: ends[0] + literal + ends[1]),
        st.just(literal)), min_size=1, max_size=6))
    return conds, payloads


def guard_of(conds):
    """The compiled predicate of ``read(fd, s) where <conds>``."""
    ast = RuleAst("r", Direction.BOTH, (MatchAst(Sys.READ, "fd", "s"),),
                  conds, (EmitAst(Sys.READ, "fd", ExprAst("var", var="s")),))
    return compile_rule(ast).pattern[0].predicate


class TestCompiledGuards:
    @given(case=guards_and_payloads())
    def test_compiled_guard_agrees_with_the_conditions(self, case):
        conds, payloads = case
        guard = guard_of(conds)
        for data in payloads:
            verdict = guard(data)
            assert verdict is all(c.evaluate(data) for c in conds)

    def test_matches_is_an_anchored_re_match(self):
        cond = CondAst("matches", "s", rb"(?!AOF )")
        guard = guard_of((cond,))
        for data in (b"AOF SET k v", b"+OK\r\n", b"x AOF ", b""):
            assert (guard(data) is not None) is cond.evaluate(data)
        assert [cond.evaluate(d) for d in (b"AOF x", b"+AOF ")] \
            == [False, True]

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_gives_both_verdicts(self, op):
        guard = guard_of((CondAst(op, "s", b"PUT-"),))
        verdicts = {guard(data) for data in
                    (b"PUT-", b"PUT-x 1", b"x PUT-", b"xPUT-x", b"GET")}
        assert verdicts == {True, False}

    def test_guards_from_text_agree_too(self):
        text = r'''rule both_ends:
            read(fd, s), write(fd, r)
                where startswith(s, "PUT") and s != "PUT \r\n"
                  and contains(s, " ") and endswith(r, "\r\n")
                => read(fd, s), write(fd, r)'''
        (rule,) = parse_rules(text)
        first, second = (p.predicate for p in rule.pattern)
        for data in (b"PUT a 1\r\n", b"PUT \r\n", b"PUT", b"GET a\r\n",
                     b"+OK\r\n", b"+OK"):
            assert first(data) is all(
                c.evaluate(data) for c in rule.ast.conditions_for("s"))
            assert second(data) is all(
                c.evaluate(data) for c in rule.ast.conditions_for("r"))


class TestParseMemo:
    def test_every_call_builds_its_own_rule_set(self):
        first, second = kv_rules(), kv_rules()
        assert first is not second and first.rules is not second.rules
        assert first.engine_for_stage(Direction.OUTDATED_LEADER) \
            is not second.engine_for_stage(Direction.OUTDATED_LEADER)
        assert [r.name for r in first.rules] \
            == [r.name for r in second.rules]

    def test_a_mutated_result_does_not_reach_the_memo(self):
        text = 'rule only: read(fd, s) => read(fd, s)'
        mutated = parse_rules(text)
        mutated.clear()
        assert [rule.name for rule in parse_rules(text)] == ["only"]
        first = kv_rules()
        first.rules.pop()
        assert len(kv_rules()) == len(kv_reference("1.0", "2.0"))

    def test_a_syntax_error_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(DslSyntaxError):
                parse_rules("rule broken: read(fd, s) => ")


# ---------------------------------------------------------------------------
# Every catalog pair against its reference rule set
# ---------------------------------------------------------------------------

CATALOG = default_catalog()
PAIRS = [(name, old, new) for name, config in sorted(CATALOG.items())
         for old, new in config.versions.update_pairs(name)]
STAGES = (Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER)

#: Payload pieces the rules' literals do not spell out: what the
#: ``matches`` guards of Memcached and Redis look for, and replies.
FRAGMENTS = (b"", b"\r\n", b" a", b" noreply", b"AOF ", b"+OK",
             b"set k 0 0 1", b"257 ", b"229 ", b"150 Opening")
SYSCALLS = (Sys.READ, Sys.WRITE, Sys.OPEN, Sys.STAT, Sys.LISTEN)


def leader_streams(rules):
    """Error-free leader records: the footprints of ``rules`` (their
    pattern positions) and single records, half each.  Half the payloads
    open with one of the rules' literals, so guards both fire and miss;
    every payload ends with one of :data:`FRAGMENTS`."""
    literals = {cond.literal for rule in rules
                for cond in rule.ast.conditions if cond.op != "matches"}
    payloads = st.one_of(*(st.sampled_from(sorted({a + b for b in FRAGMENTS
                                                   for a in heads}))
                           for heads in (literals or FRAGMENTS, FRAGMENTS)))
    footprints = st.sampled_from([[(p.name, p.fd) for p in rule.pattern]
                                  for rule in rules])
    singles = st.sampled_from([[(name, fd)] for name in SYSCALLS
                               for fd in (ANY_FD, -2, -3)])
    client_fds = st.sampled_from((4, 5))

    @st.composite
    def streams(draw):
        stream = []
        for footprint in draw(st.lists(st.booleans(), max_size=6)):
            for name, fd in draw(footprints if footprint else singles):
                if fd == ANY_FD:
                    fd = draw(client_fds)
                data = draw(payloads)
                stream.append(SyscallRecord(name, fd, data, len(data)))
        return stream
    return streams()


#: A stream strategy per pair that ships rules.  A pair that ships none
#: rewrites nothing under either set (``test_every_shipped_rule_is_dsl_text``
#: checks its reference is empty too).
STREAMS = {(name, old, new): leader_streams(rules)
           for name, old, new in PAIRS
           for rules in [CATALOG[name].rules_for(old, new).rules] if rules}


def rewritten(rules, stage, stream):
    """``stream`` as the follower must issue it: ``(key, aux)`` each."""
    return [(record.key(), dict(record.aux)) for record in
            rewrite_iteration(rules.engine_for_stage(stage), stream)]


class TestCatalogEquivalence:
    def test_every_shipped_rule_is_dsl_text(self):
        for name, old, new in PAIRS:
            shipped = CATALOG[name].rules_for(old, new).rules
            reference = REFERENCES[name](old, new).rules
            assert all(rule.ast is not None for rule in shipped)
            assert [(r.name, r.direction) for r in shipped] \
                == [(r.name, r.direction) for r in reference]

    @settings(deadline=None)
    @given(data=st.data())
    def test_every_pair_rewrites_like_its_reference(self, data):
        for (name, old, new), streams in STREAMS.items():
            shipped = CATALOG[name].rules_for(old, new)
            reference = REFERENCES[name](old, new)
            stream = data.draw(streams, label=f"{name} {old}->{new}")
            for stage in STAGES:
                assert rewritten(shipped, stage, stream) \
                    == rewritten(reference, stage, stream), (name, old, stage)

    def test_the_noreply_pattern_is_the_first_line_test(self):
        """Memcached's ``matches`` guard against the reference's Python
        predicate, on the payloads a first-line split makes tricky."""
        shipped = CATALOG["memcached"].rules_for("1.2.4", "1.2.5").rules
        reference = REFERENCES["memcached"]("1.2.4", "1.2.5").rules
        for data in (b"set k 0 0 1 noreply\r\nv\r\n", b"get k noreply",
                     b"set k 0 0 1\r\nv noreply\r\n", b"x noreply\n",
                     b"x noreply\ny\r\n", b"a\rb noreply\r\n", b" noreply",
                     b"noreply", b"set k noreply \r\n", b"\r\n noreply"):
            for mine, theirs in zip(shipped, reference):
                assert bool(mine.pattern[0].predicate(data)) \
                    is theirs.pattern[0].predicate(data), data

    def test_an_errno_on_a_tolerated_reply_survives_the_rewrite(self):
        """The one known difference.  Vsftpd's tolerate rules once built
        a fresh 500 reply; the DSL's emit copies the leader's reply
        record, so an errno replayed on that write stays on it."""
        stream = [SyscallRecord(Sys.READ, 4, b"STOU\r\n", 6),
                  SyscallRecord(Sys.OPEN, -1, b"/f", 0),
                  SyscallRecord(Sys.WRITE, -2, b"data", 4),
                  SyscallRecord(Sys.WRITE, 4, b"257 ok\r\n", 8,
                                {"error": "EPIPE"})]
        stage = Direction.UPDATED_LEADER
        shipped = rewritten(CATALOG["vsftpd"].rules_for("1.1.3", "1.2.0"),
                            stage, stream)
        reference = rewritten(REFERENCES["vsftpd"]("1.1.3", "1.2.0"),
                              stage, stream)
        assert [key for key, _ in shipped] == [key for key, _ in reference]
        assert [key[2] for key, _ in shipped] \
            == [b"STOU\r\n", b"500 Unknown command.\r\n"]
        assert [aux for _, aux in shipped] == [{}, {"error": "EPIPE"}]
        assert [aux for _, aux in reference] == [{}, {}]
