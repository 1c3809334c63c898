"""Deeper tests of the MVE runtime's corner cases."""

import pytest

from repro.errors import ServerCrash, SimulationError
from repro.mve import VaranRuntime
from repro.mve.gateway import IterationTrace
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.syscalls.costs import PROFILES, ExecutionMode
from repro.syscalls.model import read_record, write_record
from repro.workloads import VirtualClient


def make_runtime(**kwargs):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"], **kwargs)
    client = VirtualClient(kernel, server.address)
    return kernel, runtime, client


def iteration_cost(runtime, trace, mode):
    """What the runtime charges for ``trace`` in ``mode``."""
    return runtime.profile.iteration_cost_ns(
        mode, n_requests=trace.requests_handled,
        n_syscalls=len(trace.records), n_bytes=trace.bytes_transferred)


def fork_v2(runtime, now=0):
    child = runtime.leader.server.fork()
    child.apply_version(KVStoreV2(), xform_1_to_2(dict(child.heap)))
    return runtime.fork_follower(now, server=child)


class TestIterationCost:
    def test_cost_combines_compute_syscalls_bytes(self):
        _, runtime, _ = make_runtime()
        trace = IterationTrace(
            records=[read_record(4, b"x" * 10), write_record(4, b"y" * 5)],
            requests_handled=2, bytes_transferred=15)
        profile = PROFILES["kvstore"]
        cost = iteration_cost(runtime, trace, ExecutionMode.NATIVE)
        assert cost == (2 * profile.compute_ns
                        + 2 * profile.syscall_ns)  # byte_ns is 0

    def test_zero_request_iteration_still_charges_syscalls(self):
        _, runtime, _ = make_runtime()
        trace = IterationTrace(records=[read_record(4, b"partial")],
                               requests_handled=0, bytes_transferred=7)
        assert iteration_cost(runtime, trace, ExecutionMode.NATIVE) == \
            PROFILES["kvstore"].syscall_ns

    def test_leader_mode_costs_more(self):
        _, runtime, _ = make_runtime()
        trace = IterationTrace(records=[read_record(4, b"q")],
                               requests_handled=1, bytes_transferred=1)
        native = iteration_cost(runtime, trace, ExecutionMode.NATIVE)
        leader = iteration_cost(runtime, trace, ExecutionMode.MVEDSUA_LEADER)
        assert leader > native


class TestCompletions:
    def test_completions_track_requests(self):
        _, runtime, client = make_runtime()
        client.command(runtime, b"PUT a 1")
        client.command(runtime, b"GET a")
        served = sum(count for _, count in runtime.completions)
        assert served == 2
        times = [at for at, _ in runtime.completions]
        assert times == sorted(times)


class TestCrashRedelivery:
    class FlakyV1(KVStoreV1):
        """Crashes on the first DIE request only (heap-flag latch)."""

        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"DIE") and not heap.get("died"):
                heap["died"] = True
                raise ServerCrash("first-hit bug")
            if request.startswith(b"DIE"):
                return [b"+SURVIVED\r\n"]
            return super().handle(heap, request, session, io)

    def test_crashing_request_redelivered_to_promoted_follower(self):
        kernel = VirtualKernel()
        server = KVStoreServer(self.FlakyV1())
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PUT a 1")
        runtime.fork_follower(10**9)  # identical (equally buggy) version
        # The leader crashes; the follower is promoted and the request is
        # re-delivered — but the identical follower carries the same bug,
        # so it crashes on the re-delivered request too, and with no
        # survivor left the crash propagates loudly (never silently).
        with pytest.raises(ServerCrash, match="no healthy follower"):
            client.command(runtime, b"DIE now", now=2 * 10**9)
        assert "leader-crash" in runtime.event_kinds()

    def test_crash_redelivery_with_fixed_follower(self):
        kernel = VirtualKernel()
        server = KVStoreServer(self.FlakyV1())
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PUT a 1")
        # Fork a follower running the *fixed* version (v2 has no DIE bug).
        fork_v2(runtime, now=10**9)
        reply = client.command(runtime, b"DIE now", now=2 * 10**9)
        # v2 rejects DIE as unknown — but it *served* it: state kept.
        assert reply == b"-ERR unknown command\r\n"
        assert runtime.leader.version_name == "2.0"
        assert client.command(runtime, b"GET a",
                              now=3 * 10**9) == b"1\r\n"


class TestPromoteUnderBacklog:
    def test_promote_drains_backlog_first(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_v2(runtime)
        for index in range(10):
            client.command(runtime, b"PUT k%d v" % index,
                           now=10**9 + index)
        assert not runtime.ring.is_empty()
        t5 = runtime.promote(2 * 10**9)
        assert runtime.ring.is_empty()
        assert runtime.leader.version_name == "2.0"
        # The new leader observed every pre-promotion write.
        assert len(runtime.leader.server.heap["table"]) == 10
        assert t5 >= 2 * 10**9

    def test_divergence_while_draining_for_promotion(self):
        """A bad rule set discovered during the promotion drain still
        rolls back cleanly (old leader survives)."""
        _, runtime, client = make_runtime(rules=None)  # no rules!
        fork_v2(runtime)
        client.command(runtime, b"PUT-number pi 3", now=10**9)
        # The backlog still holds the divergent iteration; the promotion
        # drain discovers it, terminates the follower, and the swap never
        # happens — the old leader stays in charge.
        runtime.promote(2 * 10**9)
        assert runtime.leader.version_name == "1.0"
        assert runtime.follower is None
        assert "divergence" in runtime.event_kinds()
        assert not runtime.leader_is_updated
        # Service continues on the old version.
        assert client.command(runtime, b"PUT ok 1",
                              now=3 * 10**9) == b"+OK\r\n"


class TestFinalizeVariants:
    def test_finalize_drains_then_terminates(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_v2(runtime)
        client.command(runtime, b"PUT a 1", now=10**9)
        runtime.promote(2 * 10**9)
        client.command(runtime, b"PUT b 2", now=3 * 10**9)
        assert not runtime.ring.is_empty()
        runtime.finalize(4 * 10**9)
        assert not runtime.in_mve_mode
        assert runtime.ring.is_empty()
        assert runtime.leader.version_name == "2.0"

    def test_events_log_has_full_story(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_v2(runtime)
        client.command(runtime, b"PUT a 1", now=10**9)
        runtime.promote(2 * 10**9)
        runtime.finalize(3 * 10**9)
        kinds = runtime.event_kinds()
        assert kinds[0] == "fork"
        assert "demote-requested" in kinds
        assert "promoted" in kinds
        assert kinds[-1] == "follower-terminated"
        # Log timestamps are monotone.
        times = [event.at for event in runtime.events]
        assert times == sorted(times)


class TestObserver:
    def test_observer_sees_every_event(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        seen = []
        runtime.observer = lambda event: seen.append(event.kind)
        fork_v2(runtime)
        runtime.promote(10**9)
        runtime.finalize(2 * 10**9)
        assert seen == runtime.event_kinds()


class TestTerminationPaths:
    def test_public_terminate_follower(self):
        _, runtime, client = make_runtime()
        runtime.fork_follower(0)
        at = runtime.terminate_follower(10**9, reason="operator")
        assert at >= 10**9
        assert not runtime.in_mve_mode
        assert runtime.ring.is_empty()
        assert runtime.events[-1].detail == "operator"

    def test_terminate_without_follower_rejected(self):
        _, runtime, _ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.terminate_follower(0)

    def test_follower_death_during_backpressure_unblocks_leader(self):
        """If the follower diverges while the leader is blocked on a
        full ring, the leader resumes at full speed immediately."""
        _, runtime, client = make_runtime(ring_capacity=16, rules=None)
        fork_v2(runtime)
        # This command diverges on the follower (no rules installed),
        # but the follower only replays under back-pressure.
        client.command(runtime, b"PUT-number pi 3", now=10**9)
        for index in range(30):
            client.command(runtime, b"PUT k%02d v" % index,
                           now=10**9 + index)
        # The divergence fired during a back-pressure drain; the leader
        # finished everything without a giant stall.
        assert runtime.follower is None
        assert "divergence" in runtime.event_kinds()
        assert client.command(runtime, b"GET k00",
                              now=2 * 10**9) == b"v\r\n"

    def test_fork_after_rollback_allowed(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_v2(runtime)
        runtime.terminate_follower(10**9)
        # A retry forks a fresh follower cleanly.
        fork_v2(runtime, now=2 * 10**9)
        client.command(runtime, b"PUT again 1", now=3 * 10**9)
        runtime.drain_follower()
        assert runtime.last_divergence is None
        assert runtime.follower is not None
