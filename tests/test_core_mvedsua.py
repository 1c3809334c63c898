"""Integration tests for the Mvedsua orchestrator (the paper's §3.2)."""

import pytest

from repro.core import Mvedsua, RetryPolicy, Stage
from repro.dsu.program import ThreadState
from repro.dsu.transform import TransformRegistry
from repro.errors import SimulationError
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    kv_transforms,
    xform_drop_table,
    xform_uninitialised_type,
)
from repro.sim.engine import MILLISECOND, SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def deployment(transforms=None):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                      transforms=transforms or kv_transforms())
    client = VirtualClient(kernel, server.address)
    return kernel, mvedsua, client


def buggy_transforms(xform):
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", xform)
    return registry


class TestHappyPath:
    def test_full_lifecycle(self):
        _, mvedsua, client = deployment()
        assert mvedsua.stage is Stage.SINGLE_LEADER
        client.command(mvedsua, b"PUT balance 1000")

        attempt = mvedsua.request_update(KVStoreV2(), SECOND,
                                         rules=kv_rules())
        assert attempt.ok
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.current_version == "1.0"

        # Old semantics enforced while outdated leader runs.
        reply = client.command(mvedsua, b"PUT-number pi 3", now=2 * SECOND)
        assert reply == b"-ERR unknown command\r\n"
        assert client.command(mvedsua, b"GET balance",
                              now=3 * SECOND) == b"1000\r\n"
        assert mvedsua.timeline.t3_caught_up is not None

        mvedsua.promote(4 * SECOND)
        assert mvedsua.stage is Stage.UPDATED_LEADER
        assert mvedsua.current_version == "2.0"

        mvedsua.finalize(5 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        outcome = mvedsua.last_outcome()
        assert outcome.succeeded() and not outcome.rolled_back()

        # New semantics now exposed; old state preserved.
        assert client.command(mvedsua, b"GET balance",
                              now=6 * SECOND) == b"1000\r\n"
        client.command(mvedsua, b"PUT-number pi 3", now=6 * SECOND)
        assert client.command(mvedsua, b"TYPE pi",
                              now=7 * SECOND) == b"number\r\n"

    def test_timeline_ordering(self):
        _, mvedsua, client = deployment()
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        client.command(mvedsua, b"GET a", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        mvedsua.finalize(4 * SECOND)
        t = mvedsua.last_outcome()
        assert t.t1_forked <= t.t2_updated <= t.t3_caught_up
        assert t.t4_demote <= t.t5_promoted <= t.t6_finalized
        assert t.update_duration_ns() >= 0

    def test_update_runs_off_the_leaders_critical_path(self):
        """The dynamic update charges the follower CPU, not the leader."""
        _, mvedsua, client = deployment()
        # Pre-populate a large store (as Figure 7 does with 1M entries).
        server = mvedsua.runtime.leader.server
        server.heap["table"].update(
            {f"key{i}": "value" for i in range(100_000)})
        leader_before = mvedsua.runtime.leader.cpu.busy_until
        attempt = mvedsua.request_update(KVStoreV2(), SECOND,
                                         rules=kv_rules())
        assert attempt.xform_ns == 100_000 * PROFILES["kvstore"].xform_entry_ns
        leader_pause = mvedsua.runtime.leader.cpu.busy_until - max(
            leader_before, SECOND)
        # Leader paid only quiesce + fork, far less than the transform.
        assert leader_pause < attempt.xform_ns

    def test_operator_rollback(self):
        _, mvedsua, client = deployment()
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        mvedsua.rollback(2 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "1.0"
        assert mvedsua.last_outcome().rolled_back()
        assert client.command(mvedsua, b"GET a", now=3 * SECOND) == b"1\r\n"


class TestGuards:
    def test_update_during_update_rejected(self):
        _, mvedsua, _ = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        with pytest.raises(SimulationError):
            mvedsua.request_update(KVStoreV2(), 2 * SECOND)

    def test_promote_from_single_leader_rejected(self):
        _, mvedsua, _ = deployment()
        with pytest.raises(SimulationError):
            mvedsua.promote(SECOND)

    def test_finalize_without_follower_rejected(self):
        _, mvedsua, _ = deployment()
        with pytest.raises(SimulationError):
            mvedsua.finalize(SECOND)

    def test_rollback_from_updated_leader_rejected(self):
        _, mvedsua, _ = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        mvedsua.promote(2 * SECOND)
        with pytest.raises(SimulationError):
            mvedsua.rollback(3 * SECOND)


class TestFaultTolerance:
    """The paper's §6.2 fault classes, on the running example."""

    def test_error_in_new_code_rolls_back(self):
        """A follower crash terminates it; clients never notice."""
        _, mvedsua, client = deployment(
            buggy_transforms(xform_uninitialised_type))
        client.command(mvedsua, b"PUT k v")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        # The GET crashes the follower during catch-up...
        assert client.command(mvedsua, b"GET k", now=2 * SECOND) == b"v\r\n"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        # ...and service continues uninterrupted.
        assert client.command(mvedsua, b"GET k", now=3 * SECOND) == b"v\r\n"

    def test_silent_state_transform_error_detected_as_divergence(self):
        _, mvedsua, client = deployment(buggy_transforms(xform_drop_table))
        client.command(mvedsua, b"PUT k v")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        client.command(mvedsua, b"GET k", now=2 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        assert mvedsua.runtime.last_divergence is not None

    def test_raising_transformer_fails_update_cleanly(self):
        def exploding(heap):
            raise KeyError("missing field")
        _, mvedsua, client = deployment(buggy_transforms(exploding))
        client.command(mvedsua, b"PUT k v")
        attempt = mvedsua.request_update(KVStoreV2(), SECOND)
        assert not attempt.ok
        assert attempt.reason == "transform-failed"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert client.command(mvedsua, b"GET k", now=2 * SECOND) == b"v\r\n"

    def test_timing_error_reported_as_quiescence_failure(self):
        _, mvedsua, _ = deployment()

        def deadlock(server):
            server.program.threads = [
                ThreadState("holder"),
                ThreadState("waiter", blocked_on_lock=True),
            ]
        attempt = mvedsua.request_update(KVStoreV2(), SECOND,
                                         prepare=deadlock)
        assert not attempt.ok
        assert attempt.reason == "quiescence-failed"
        assert mvedsua.stage is Stage.SINGLE_LEADER


class TestRetryPolicy:
    def test_retry_until_quiescence_succeeds(self):
        _, mvedsua, _ = deployment()
        countdown = {"failures_left": 3}

        def flaky(server):
            blocked = countdown["failures_left"] > 0
            countdown["failures_left"] -= 1
            server.program.threads = [
                ThreadState("worker", blocked_on_lock=blocked)]

        policy = RetryPolicy(retry_wait_ns=500 * MILLISECOND,
                             max_attempts=10)
        attempts = mvedsua.request_update_with_retry(
            KVStoreV2(), SECOND, rules=kv_rules(), prepare=flaky,
            policy=policy)
        assert len(attempts) == 4
        assert attempts[-1].ok
        assert all(not a.ok for a in attempts[:-1])
        assert mvedsua.stage is Stage.OUTDATED_LEADER

    def test_retry_waits_500ms_between_attempts(self):
        _, mvedsua, _ = deployment()
        seen = []

        def always_blocked(server):
            seen.append(True)
            server.program.threads = [
                ThreadState("w", blocked_on_lock=True)]

        policy = RetryPolicy(retry_wait_ns=500 * MILLISECOND, max_attempts=3)
        attempts = mvedsua.request_update_with_retry(
            KVStoreV2(), SECOND, prepare=always_blocked, policy=policy)
        assert len(attempts) == 3
        assert attempts[1].at - attempts[0].at == 500 * MILLISECOND

    def test_transform_failures_are_not_retried(self):
        def exploding(heap):
            raise ValueError("deterministic bug")
        _, mvedsua, _ = deployment(buggy_transforms(exploding))
        attempts = mvedsua.request_update_with_retry(KVStoreV2(), SECOND)
        assert len(attempts) == 1
        assert attempts[0].reason == "transform-failed"


class TestCrashPromotion:
    class CrashingV1(KVStoreV1):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"HMGET"):
                raise ServerCrashHolder.error()
            return super().handle(heap, request, session)

    def test_old_version_crash_promotes_new_version(self):
        from repro.errors import ServerCrash

        class CrashV1(KVStoreV1):
            def handle(self, heap, request, session=None, io=None):
                if request.startswith(b"BOOM"):
                    raise ServerCrash("old bug")
                return super().handle(heap, request, session)

        kernel = VirtualKernel()
        server = KVStoreServer(CrashV1())
        server.attach(kernel)
        mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                          transforms=kv_transforms())
        client = VirtualClient(kernel, server.address)
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        reply = client.command(mvedsua, b"BOOM", now=2 * SECOND)
        # New version (which lacks the bug) answered instead of crashing.
        assert reply == b"-ERR unknown command\r\n"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "2.0"
        assert mvedsua.last_outcome().succeeded()
        assert client.command(mvedsua, b"GET a", now=3 * SECOND) == b"1\r\n"


class ServerCrashHolder:
    @staticmethod
    def error():
        from repro.errors import ServerCrash
        return ServerCrash("boom")


class TestPromotionDrainDivergence:
    def test_divergence_during_promotion_drain_rolls_back(self):
        """Promoting with a divergent backlog aborts the promotion: the
        old leader stays in charge and the update is rolled back."""
        _, mvedsua, client = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND)  # no rules on purpose
        client.command(mvedsua, b"PUT-number pi 3", now=2 * SECOND)
        # Whether the divergent iteration was caught by pump's catch-up
        # or is still queued for promote()'s drain, the outcome is the
        # same rollback.
        if mvedsua.stage is Stage.OUTDATED_LEADER:
            mvedsua.promote(3 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "1.0"
        assert mvedsua.last_outcome().rolled_back()
        assert client.command(mvedsua, b"PUT ok 1",
                              now=4 * SECOND) == b"+OK\r\n"
