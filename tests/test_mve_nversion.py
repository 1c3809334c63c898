"""N-version execution (Varan's general mode): one ``VaranRuntime``, a
leader and several follower lanes.  The pair-only cases live in
``test_mve_runtime.py``."""

import pytest

from repro.errors import ServerCrash
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.obs.trace import Tracer
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.sites import observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def make_runtime(**kwargs):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                              **kwargs)
    client = VirtualClient(kernel, server.address)
    return kernel, runtime, client


def group_size(runtime):
    """Processes currently executing (leader + live followers)."""
    return 1 + len(runtime.lanes)


def divergences(runtime):
    return runtime.event_kinds().count("divergence")


class CrashOnK5(KVStoreV1):
    """A diversified replica with a bug on one specific key."""

    def handle(self, heap, request, session=None, io=None):
        if request.startswith(b"PUT k5 "):
            raise ServerCrash("replica-specific bug")
        return super().handle(heap, request, session, io)


class TestThreeIdenticalVersions:
    def test_all_replicas_converge(self):
        _, runtime, client = make_runtime()
        runtime.fork_follower(0)
        runtime.fork_follower(0)
        assert group_size(runtime) == 3
        for index in range(8):
            client.command(runtime, b"PUT k%d v%d" % (index, index),
                           now=10**9 + index)
        runtime.drain_follower()
        assert divergences(runtime) == 0
        heaps = [lane.process.server.heap for lane in runtime.lanes]
        assert all(h == runtime.leader.server.heap for h in heaps)

    def test_leader_costs_more_with_followers(self):
        _, solo, client_a = make_runtime()
        client_a.command(solo, b"PUT a 1")
        _, group, client_b = make_runtime()
        group.fork_follower(0)
        group.fork_follower(0)
        client_b.command(group, b"PUT a 1", now=10**9)
        # Same work, but the group leader paid recording overhead.
        assert group.leader.cpu.total_busy > solo.leader.cpu.total_busy


class TestPartialFailure:
    def test_buggy_replica_terminated_others_continue(self):
        _, runtime, client = make_runtime()
        runtime.fork_follower(0)  # healthy copy
        buggy = runtime.leader.server.fork()
        buggy.version = CrashOnK5()
        buggy.program.version = buggy.version
        runtime.fork_follower(0, server=buggy)
        assert group_size(runtime) == 3
        for index in range(8):
            client.command(runtime, b"PUT k%d v" % index, now=10**9 + index)
        runtime.drain_follower()
        # Only the buggy follower died; leader + healthy follower live.
        assert group_size(runtime) == 2
        assert "follower-crash" in runtime.event_kinds()
        assert client.command(runtime, b"GET k5",
                              now=10**10) == b"v\r\n"

    def test_divergent_replica_terminated(self):
        _, runtime, client = make_runtime()
        tracer = Tracer()
        with observing(tracer=tracer):
            healthy = runtime.fork_follower(0)
            updated = runtime.leader.server.fork()
            updated.apply_version(KVStoreV2(),
                                  xform_1_to_2(dict(updated.heap)))
            runtime.fork_follower(0, server=updated)  # no rules!
            client.command(runtime, b"PUT-number pi 3", now=10**9)
            runtime.drain_follower()
        assert group_size(runtime) == 2
        assert divergences(runtime) == 1
        assert [lane.process for lane in runtime.lanes] == [healthy]
        # Extra lanes get the pair's forensics: the bundle and its
        # trace event name the follower that diverged, not its sibling.
        bundle = runtime.last_forensics
        assert (bundle.version, bundle.leader_version) == ("2.0", "1.0")
        assert bundle.expected != bundle.actual
        [event] = [e for e in tracer.events
                   if e.kind == "divergence.forensics"]
        assert tracer.forensics[event.fields["bundle"]] is bundle
        assert "version=2.0" in event.fields["reason"]

    def test_rules_are_per_follower(self):
        _, runtime, client = make_runtime()
        runtime.fork_follower(0)  # identical: needs no rules
        updated = runtime.leader.server.fork()
        updated.apply_version(KVStoreV2(),
                              xform_1_to_2(dict(updated.heap)))
        runtime.fork_follower(0, server=updated, rules=kv_rules())
        client.command(runtime, b"PUT-number pi 3", now=10**9)
        client.command(runtime, b"PUT a 1", now=2 * 10**9)
        runtime.drain_follower()
        # With its rules, the updated follower survives alongside the
        # identical one.
        assert group_size(runtime) == 3
        assert divergences(runtime) == 0


class TestLeaderFailover:
    class FragileLeader(KVStoreV1):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"BOOM"):
                raise ServerCrash("leader-only bug")
            return super().handle(heap, request, session, io)

    def test_first_healthy_follower_promoted(self):
        kernel = VirtualKernel()
        server = KVStoreServer(self.FragileLeader())
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PUT a 1")
        fixed = server.fork()
        fixed.apply_version(KVStoreV2(), xform_1_to_2(dict(fixed.heap)))
        runtime.fork_follower(10**9, server=fixed, rules=kv_rules())
        reply = client.command(runtime, b"BOOM", now=2 * 10**9)
        assert reply == b"-ERR unknown command\r\n"
        assert runtime.leader.version_name == "2.0"
        assert "follower-promoted-after-crash" in runtime.event_kinds()
        assert client.command(runtime, b"GET a",
                              now=3 * 10**9) == b"1\r\n"

    def test_crash_with_no_followers_propagates(self):
        kernel = VirtualKernel()
        server = KVStoreServer(self.FragileLeader())
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        with pytest.raises(ServerCrash):
            client.command(runtime, b"BOOM")


class TestBackPressure:
    def test_slowest_follower_bounds_the_leader(self):
        _, runtime, client = make_runtime(ring_capacity=32)
        runtime.fork_follower(0)
        slow = runtime.fork_follower(0)
        slow.cpu.block_until(10**12)
        last = 0
        for index in range(30):
            _, last = client.request(runtime, b"PUT k%02d v\r\n" % index,
                                     now=10**9)
        assert last >= 10**12  # stalled behind the slow follower


class TestMxScenario:
    """Mx (§7) runs two versions side by side from the start — no DSU —
    and tolerates a bug in one version by using the other.  That is the
    runtime with a differently-versioned follower lane."""

    def test_two_versions_from_the_start_tolerate_old_bug(self):
        from repro.servers.redis import RedisServer, redis_rules, redis_version
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0", hmget_bug=True))
        server.attach(kernel)
        runtime = VaranRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        fixed = server.fork()
        fixed.apply_version(redis_version("2.0.1", hmget_bug=False),
                            dict(fixed.heap))
        runtime.fork_follower(0, server=fixed,
                             rules=redis_rules("2.0.0", "2.0.1"))
        client.command(runtime, b"SET wrongtype v", now=10**9)
        # The buggy leader crashes on the bad HMGET; the fixed follower
        # takes over and answers the re-delivered request.
        reply = client.command(runtime, b"HMGET wrongtype f",
                               now=2 * 10**9)
        assert b"wrong kind of value" in reply
        assert runtime.leader.version_name == "2.0.1"
        assert client.command(runtime, b"GET wrongtype",
                              now=3 * 10**9) == b"$1\r\nv\r\n"
