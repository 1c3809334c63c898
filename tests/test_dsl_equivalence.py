"""The textual DSL and the programmatic rule API must behave identically.

The paper's artefact publishes its rules in Varan's textual DSL; this
repository builds them programmatically and keeps a DSL rendering next
to them.  These tests run *both* formulations through the full MVE stack
and require identical outcomes.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DslSyntaxError
from repro.mve import VaranRuntime
from repro.mve.dsl.parser import (CondAst, EmitAst, ExprAst, MatchAst,
                                  RuleAst, compile_rule, parse_rules)
from repro.mve.dsl.rules import Direction
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.servers.kvstore.rules import kv_rules_from_dsl
from repro.servers.redis import RedisServer, redis_rules, redis_version
from repro.servers.redis.rules import redis_rules_from_dsl
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import Sys
from repro.workloads import VirtualClient


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
        programmatic = run_kv_scenario(kv_rules())
        from_dsl = run_kv_scenario(kv_rules_from_dsl())
        assert programmatic[0] == from_dsl[0]   # replies
        assert programmatic[1] == from_dsl[1]   # post-promotion replies
        assert programmatic[2] and from_dsl[2]  # both divergence-free
        assert programmatic[4] == from_dsl[4]   # final leader heap

    def test_same_rule_counts(self):
        assert len(kv_rules()) == len(kv_rules_from_dsl())


class TestRedisEquivalence:
    def test_same_outcomes(self):
        programmatic = run_redis_scenario(redis_rules("2.0.0", "2.0.1"))
        from_dsl = run_redis_scenario(redis_rules_from_dsl("2.0.0", "2.0.1"))
        assert programmatic[0] == from_dsl[0]
        assert programmatic[1] == from_dsl[1]
        assert programmatic[2] and from_dsl[2]
        assert programmatic[3] == from_dsl[3]

    def test_no_rules_for_other_pairs(self):
        assert len(redis_rules_from_dsl("2.0.1", "2.0.2")) == 0

    def test_dsl_rules_fire(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["redis"],
                               rules=redis_rules_from_dsl("2.0.0", "2.0.1"))
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
        first, second = kv_rules_from_dsl(), kv_rules_from_dsl()
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
        first = kv_rules_from_dsl()
        first.rules.pop()
        assert len(kv_rules_from_dsl()) == len(kv_rules())

    def test_a_syntax_error_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(DslSyntaxError):
                parse_rules("rule broken: read(fd, s) => ")
