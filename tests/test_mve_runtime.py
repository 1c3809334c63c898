"""Integration tests for the Varan runtime: fork, replay, divergence,
promotion, back-pressure, and crash fail-over."""

import pytest

from repro.errors import ServerCrash, SimulationError
from repro.mve import VaranRuntime
from repro.mve.gateway import GatewayRole
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
    xform_drop_table,
    xform_uninitialised_type,
)
from repro.syscalls.costs import PROFILES, ExecutionMode
from repro.workloads import VirtualClient


def make_runtime(ring_capacity=256, rules=None, with_kitsune=False):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                           ring_capacity=ring_capacity,
                           with_kitsune=with_kitsune,
                           rules=rules)
    client = VirtualClient(kernel, server.address)
    return kernel, runtime, client


def fork_updated_v2(runtime, xform=xform_1_to_2, now=0):
    """Fork a follower and dynamically 'update' it to v2."""
    child = runtime.leader.server.fork()
    child.apply_version(KVStoreV2(), xform(dict(child.heap)))
    return runtime.fork_follower(now, server=child)


class TestSingleLeader:
    def test_serves_without_follower(self):
        _, runtime, client = make_runtime()
        assert client.command(runtime, b"PUT a 1") == b"+OK\r\n"
        assert client.command(runtime, b"GET a") == b"1\r\n"
        assert not runtime.in_mve_mode
        assert runtime.ring.is_empty()

    def test_single_leader_mode_costs(self):
        _, runtime, _ = make_runtime(with_kitsune=False)
        assert runtime.leader_mode is ExecutionMode.VARAN_SINGLE
        _, runtime, _ = make_runtime(with_kitsune=True)
        assert runtime.leader_mode is ExecutionMode.MVEDSUA_SINGLE

    def test_pump_returns_monotone_completion_times(self):
        _, runtime, client = make_runtime()
        _, t1 = client.request(runtime, b"PUT a 1\r\n", now=0)
        _, t2 = client.request(runtime, b"PUT b 2\r\n", now=t1)
        assert t2 > t1 > 0


class TestIdenticalFollower:
    """Plain Varan: two copies of the same version (the Varan-2 rows)."""

    def test_fork_and_replay_without_divergence(self):
        _, runtime, client = make_runtime()
        client.command(runtime, b"PUT a 1")
        runtime.fork_follower(10**9)
        assert runtime.in_mve_mode
        assert runtime.leader_mode is ExecutionMode.VARAN_LEADER
        client.command(runtime, b"PUT b 2", now=2 * 10**9)
        client.command(runtime, b"GET a", now=3 * 10**9)
        runtime.drain_follower()
        assert runtime.ring.is_empty()
        assert runtime.last_divergence is None
        # Both processes converged on the same state.
        assert runtime.follower.server.heap == runtime.leader.server.heap

    def test_follower_lags_then_catches_up(self):
        _, runtime, client = make_runtime()
        runtime.fork_follower(0)
        for i in range(5):
            client.command(runtime, b"PUT k%d v" % i, now=10**9 + i)
        assert not runtime.ring.is_empty()
        runtime.drain_follower()
        assert runtime.ring.is_empty()
        assert len(runtime.follower.server.heap["table"]) == 5

    def test_second_fork_adds_a_lane_that_pair_operations_reject(self):
        _, runtime, _ = make_runtime(ring_capacity=64)
        first = runtime.fork_follower(0)
        second = runtime.fork_follower(1)
        assert [lane.process for lane in runtime.lanes] == [first, second]
        # The pair API keeps meaning the first lane, fed by the
        # runtime's own ring; the extra lane gets one of the same size.
        assert runtime.follower is first
        assert runtime.lanes[0].ring is runtime.ring
        assert runtime.lanes[1].ring is not runtime.ring
        assert runtime.lanes[1].ring.capacity == 64
        for operation in (runtime.promote, runtime.finalize,
                          runtime.terminate_follower):
            with pytest.raises(SimulationError, match="pair operation"):
                operation(2)
        assert len(runtime.lanes) == 2

    def test_fork_charges_leader_pause(self):
        _, runtime, _ = make_runtime()
        before = runtime.leader.cpu.busy_until
        runtime.fork_follower(0)
        assert runtime.leader.cpu.busy_until > before

    def test_follower_sessions_track_new_connections(self):
        kernel, runtime, client = make_runtime()
        runtime.fork_follower(0)
        late = VirtualClient(kernel, runtime.leader.server.address, "late")
        late.command(runtime, b"PUT x 9", now=10**9)
        runtime.drain_follower()
        assert runtime.follower.server.heap["table"] == {"x": "9"}


class TestUpdatedFollower:
    """Mvedsua's outdated-leader stage: old leads, new follows."""

    def test_catchup_preserves_state_relation(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        client.command(runtime, b"PUT a 1")
        fork_updated_v2(runtime)
        client.command(runtime, b"PUT b 2", now=10**9)
        client.command(runtime, b"GET a", now=2 * 10**9)
        runtime.drain_follower()
        leader_heap = runtime.leader.server.heap
        follower_heap = runtime.follower.server.heap
        assert follower_heap == xform_1_to_2(
            {"table": dict(leader_heap["table"])})

    def test_new_command_redirected_by_rule(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_updated_v2(runtime)
        reply = client.command(runtime, b"PUT-number pi 3", now=10**9)
        assert reply == b"-ERR unknown command\r\n"
        runtime.drain_follower()
        assert runtime.last_divergence is None
        assert "put_typed" in runtime.rules_fired
        # Neither version stored the rejected key.
        assert "pi" not in runtime.leader.server.heap["table"]
        assert "pi" not in runtime.follower.server.heap["table"]

    def test_new_command_without_rule_diverges(self):
        _, runtime, client = make_runtime(rules=None)
        fork_updated_v2(runtime)
        client.command(runtime, b"PUT-number pi 3", now=10**9)
        runtime.drain_follower()
        assert runtime.last_divergence is not None
        assert runtime.follower is None  # terminated
        assert "divergence" in runtime.event_kinds()

    def test_drop_table_bug_detected_as_divergence(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        client.command(runtime, b"PUT k v")
        fork_updated_v2(runtime, xform=xform_drop_table)
        assert client.command(runtime, b"GET k", now=10**9) == b"v\r\n"
        runtime.drain_follower()
        assert runtime.follower is None
        assert runtime.last_divergence is not None
        # Clients keep being served by the old version.
        assert client.command(runtime, b"GET k", now=2 * 10**9) == b"v\r\n"

    def test_uninitialised_type_bug_crashes_follower_only(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        client.command(runtime, b"PUT k v")
        fork_updated_v2(runtime, xform=xform_uninitialised_type)
        client.command(runtime, b"GET k", now=10**9)
        runtime.drain_follower()
        assert "follower-crash" in runtime.event_kinds()
        assert runtime.follower is None
        assert client.command(runtime, b"GET k", now=2 * 10**9) == b"v\r\n"


class TestPromotion:
    def test_promote_swaps_roles_and_direction(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_updated_v2(runtime)
        client.command(runtime, b"PUT a 1", now=10**9)
        t5 = runtime.promote(2 * 10**9)
        assert t5 >= 2 * 10**9
        assert runtime.leader.version_name == "2.0"
        assert runtime.follower.version_name == "1.0"
        assert runtime.leader_is_updated
        assert runtime.leader.gateway.role is GatewayRole.DIRECT
        assert runtime.follower.gateway.role is GatewayRole.REPLAY

    def test_new_semantics_exposed_after_promotion(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_updated_v2(runtime)
        runtime.promote(10**9)
        reply = client.command(runtime, b"PUT-string s v", now=2 * 10**9)
        assert reply == b"+OK\r\n"
        runtime.drain_follower()
        # Reverse rule mapped PUT-string -> PUT for the old follower.
        assert runtime.last_divergence is None
        assert runtime.follower.server.heap["table"]["s"] == "v"

    def test_unmappable_new_command_terminates_old_follower(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_updated_v2(runtime)
        runtime.promote(10**9)
        client.command(runtime, b"PUT-number n 5", now=2 * 10**9)
        runtime.drain_follower()
        assert runtime.follower is None  # divergence, as §3.3.2 predicts
        # New leader unaffected.
        assert client.command(runtime, b"TYPE n", now=3 * 10**9) == b"number\r\n"

    def test_finalize_returns_to_single_leader(self):
        _, runtime, client = make_runtime(rules=kv_rules())
        fork_updated_v2(runtime)
        runtime.promote(10**9)
        runtime.finalize(2 * 10**9)
        assert not runtime.in_mve_mode
        assert runtime.leader.version_name == "2.0"

    def test_promote_without_follower_rejected(self):
        _, runtime, _ = make_runtime()
        with pytest.raises(SimulationError):
            runtime.promote(0)


class TestLeaderCrashFailover:
    class CrashingV1(KVStoreV1):
        """v1 with a bug: GETCRASH kills the server; v2 fixed it."""

        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"GETCRASH"):
                raise ServerCrash("old-version bug")
            return super().handle(heap, request, session)

    def make_crashy(self):
        kernel = VirtualKernel()
        server = KVStoreServer(self.CrashingV1())
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        return runtime, client

    def test_crash_without_follower_propagates(self):
        runtime, client = self.make_crashy()
        with pytest.raises(ServerCrash):
            client.command(runtime, b"GETCRASH")

    def test_crash_with_follower_promotes_it(self):
        runtime, client = self.make_crashy()
        client.command(runtime, b"PUT a 1")
        fork_updated_v2(runtime)  # v2 "fixed" the crash
        client.command(runtime, b"PUT b 2", now=10**9)
        # The leader crashes; the follower takes over and answers.
        reply = client.command(runtime, b"GETCRASH", now=2 * 10**9)
        assert reply == b"-ERR unknown command\r\n"
        assert runtime.leader.version_name == "2.0"
        assert runtime.follower is None
        assert "follower-promoted-after-crash" in runtime.event_kinds()
        # State was preserved across the fail-over, including b.
        assert client.command(runtime, b"GET b", now=3 * 10**9) == b"2\r\n"

    def test_crash_with_crashed_follower_propagates(self):
        runtime, client = self.make_crashy()
        client.command(runtime, b"PUT k v")
        fork_updated_v2(runtime, xform=xform_uninitialised_type)
        client.command(runtime, b"GET k", now=10**9)
        runtime.drain_follower()  # follower crashed and was dropped
        with pytest.raises(ServerCrash):
            client.command(runtime, b"GETCRASH", now=2 * 10**9)


class TestBackPressure:
    def test_full_ring_blocks_leader_until_follower_consumes(self):
        _, runtime, client = make_runtime(ring_capacity=16)
        runtime.fork_follower(0)
        # Make the follower unavailable for a long virtual time, as if
        # it were performing a slow dynamic update.
        runtime.follower.cpu.block_until(10**12)
        last = 0
        for i in range(40):
            _, last = client.request(runtime, b"PUT k%02d v\r\n" % i,
                                     now=10**9)
        # The leader must have been stalled behind the follower.
        assert last >= 10**12

    def test_large_ring_absorbs_slow_follower(self):
        _, runtime, client = make_runtime(ring_capacity=1 << 16)
        runtime.fork_follower(0)
        runtime.follower.cpu.block_until(10**12)
        last = 0
        for i in range(40):
            _, last = client.request(runtime, b"PUT k%02d v\r\n" % i,
                                     now=10**9)
        assert last < 2 * 10**9  # never blocked on the buffer

    def test_ring_smaller_than_iteration_rejected(self):
        _, runtime, client = make_runtime(ring_capacity=1)
        runtime.fork_follower(0)
        runtime.follower.cpu.block_until(10**12)
        # The error must name both the problem and the configured size.
        with pytest.raises(SimulationError,
                           match=r"cannot hold one leader iteration.*"
                                 r"capacity 1"):
            client.command(runtime, b"PUT a 1", now=10**9)

    def test_batched_publish_matches_per_record_timestamps(self):
        """push_many stamps each iteration's burst with one produce time,
        exactly as the old per-record loop did between BufferFull events."""
        _, runtime, client = make_runtime(ring_capacity=1 << 10)
        runtime.fork_follower(0)
        client.command(runtime, b"PUT a 1", now=10**9)
        entries = [runtime.ring.pop() for _ in range(len(runtime.ring))]
        stamps = []
        for descriptor in runtime.lanes[0].pending:
            burst = entries[:descriptor.n_records]
            entries = entries[descriptor.n_records:]
            assert len({e.produced_at for e in burst}) == 1
            stamps.append(burst[0].produced_at)
        assert not entries  # descriptors account for every ring entry
        assert stamps == sorted(stamps)

    def test_high_watermark_tracks_backlog(self):
        _, runtime, client = make_runtime(ring_capacity=1 << 10)
        runtime.fork_follower(0)
        for i in range(10):
            client.command(runtime, b"PUT k%d v" % i, now=10**9 + i)
        assert runtime.ring.high_watermark > 0
        runtime.drain_follower()
        assert runtime.ring.is_empty()
