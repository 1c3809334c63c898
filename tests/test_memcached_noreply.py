"""Tests for the Memcached 1.2.5 ``noreply`` extension and its rules.

This is the first Memcached update in our range that changes the
syscall sequence (a flagged command elicits no reply), exercising the
reply-suppression rule shapes.
"""

from repro.core import Mvedsua, Stage
from repro.net import VirtualKernel
from repro.servers.memcached import (
    MemcachedServer,
    memcached_rules,
    memcached_transforms,
    memcached_version,
)
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient
from tests.counting import fired_rules


def native(version):
    kernel = VirtualKernel()
    server = MemcachedServer(memcached_version(version))
    server.attach(kernel)
    runtime = NativeRuntime(kernel, server, PROFILES["memcached"])
    client = VirtualClient(kernel, server.address)
    return kernel, server, runtime, client


class TestProtocol:
    def test_125_suppresses_storage_reply(self):
        _, _, runtime, client = native("1.2.5")
        reply, _ = client.request(runtime,
                                  b"set k 0 0 1 noreply\r\nv\r\n", 0)
        assert reply == b""
        assert client.command(runtime, b"get k") == \
            b"VALUE k 0 1\r\nv\r\nEND\r\n"

    def test_125_suppresses_delete_reply(self):
        _, _, runtime, client = native("1.2.5")
        client.request(runtime, b"set k 0 0 1\r\nv\r\n", 0)
        client.recv()
        reply, _ = client.request(runtime, b"delete k noreply\r\n", 0)
        assert reply == b""
        assert client.command(runtime, b"get k") == b"END\r\n"

    def test_125_replies_without_flag(self):
        _, _, runtime, client = native("1.2.5")
        reply, _ = client.request(runtime, b"set k 0 0 1\r\nv\r\n", 0)
        assert reply == b"STORED\r\n"

    def test_124_ignores_the_flag_but_replies(self):
        """Pre-1.2.5 servers treat 'noreply' as a stray token: they
        still store the item and still answer."""
        _, _, runtime, client = native("1.2.4")
        reply, _ = client.request(runtime,
                                  b"set k 0 0 1 noreply\r\nv\r\n", 0)
        assert reply == b"STORED\r\n"
        assert client.command(runtime, b"get k") == \
            b"VALUE k 0 1\r\nv\r\nEND\r\n"

    def test_rule_counts(self):
        assert memcached_rules("1.2.3", "1.2.4").count() == 0
        assert memcached_rules("1.2.4", "1.2.5").count() == 1


class TestUnderMvedsua:
    def deployment(self):
        kernel = VirtualKernel()
        server = MemcachedServer(memcached_version("1.2.4"))
        server.attach(kernel)
        mvedsua = Mvedsua(kernel, server, PROFILES["memcached"],
                          transforms=memcached_transforms())
        client = VirtualClient(kernel, server.address)
        return mvedsua, client

    def test_outdated_leader_with_rule_stays_in_sync(self):
        with fired_rules() as fired:
            mvedsua, client = self.deployment()
            mvedsua.request_update(memcached_version("1.2.5"), SECOND,
                                   rules=memcached_rules("1.2.4", "1.2.5"))
            reply, _ = client.request(mvedsua,
                                      b"set k 0 0 1 noreply\r\nv\r\n",
                                      2 * SECOND)
            client.command(mvedsua, b"get k", now=3 * SECOND)
        assert reply == b"STORED\r\n"  # the old leader still replies
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.last_divergence is None
        assert "noreply_suppress" in fired
        # Both versions stored the item: the state relation held.
        assert mvedsua.runtime.follower.server.heap["items"].keys() == \
            mvedsua.runtime.leader.server.heap["items"].keys()

    def test_outdated_leader_without_rule_diverges(self):
        mvedsua, client = self.deployment()
        mvedsua.request_update(memcached_version("1.2.5"), SECOND)
        client.request(mvedsua, b"set k 0 0 1 noreply\r\nv\r\n",
                       2 * SECOND)
        mvedsua.pump(3 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()

    def test_updated_leader_tolerates_old_reply(self):
        with fired_rules() as fired:
            mvedsua, client = self.deployment()
            mvedsua.request_update(memcached_version("1.2.5"), SECOND,
                                   rules=memcached_rules("1.2.4", "1.2.5"))
            mvedsua.promote(2 * SECOND)
            reply, _ = client.request(mvedsua,
                                      b"set k 0 0 1 noreply\r\nv\r\n",
                                      3 * SECOND)
            client.command(mvedsua, b"get k", now=4 * SECOND)
        assert reply == b""  # new semantics: silent
        assert mvedsua.runtime.last_divergence is None
        assert "noreply_tolerate" in fired
        mvedsua.finalize(5 * SECOND)
        assert mvedsua.current_version == "1.2.5"

    def test_full_chain_122_to_125(self):
        kernel = VirtualKernel()
        server = MemcachedServer(memcached_version("1.2.2"))
        server.attach(kernel)
        mvedsua = Mvedsua(kernel, server, PROFILES["memcached"],
                          transforms=memcached_transforms())
        client = VirtualClient(kernel, server.address)
        client.request(mvedsua, b"set keep 0 0 4\r\ndata\r\n", 0)
        client.recv()
        now = SECOND
        for old, new in (("1.2.2", "1.2.3"), ("1.2.3", "1.2.4"),
                         ("1.2.4", "1.2.5")):
            mvedsua.request_update(memcached_version(new), now,
                                   rules=memcached_rules(old, new))
            client.command(mvedsua, b"get keep", now=now + SECOND)
            mvedsua.promote(now + 2 * SECOND)
            mvedsua.finalize(now + 3 * SECOND)
            now += 4 * SECOND
        assert mvedsua.current_version == "1.2.5"
        assert client.command(mvedsua, b"get keep", now=now) == \
            b"VALUE keep 0 4\r\ndata\r\nEND\r\n"
