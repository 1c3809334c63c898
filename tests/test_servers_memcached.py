"""Tests for the Memcached analogue: protocol, threading, LibEvent."""

from repro.apps import deploy
from repro.core import Mvedsua, Stage
from repro.dsu import Kitsune
from repro.dsu.transform import TransformRegistry
from repro.libevent import LibEventLoop
from repro.net import VirtualKernel
from repro.servers.memcached import (
    MANY_CLIENTS_THRESHOLD,
    MemcachedServer,
    memcached_rules,
    memcached_transforms,
    memcached_version,
    xform_free_libevent,
)
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def deployment(adapted=True, reset=None, transforms=None, version="1.2.2"):
    kernel = VirtualKernel()
    server = MemcachedServer(memcached_version(version),
                             mvedsua_adapted=adapted,
                             libevent_reset_on_abort=reset)
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["memcached"],
                      transforms=transforms or memcached_transforms())
    return kernel, server, mvedsua


class TestLibEventLoop:
    def test_round_robin_rotation(self):
        loop = LibEventLoop()
        assert loop.dispatch_order([1, 2, 3]) == [1, 2, 3]
        # Cursor advanced by 3; next batch of 2 rotates by 3 % 2 = 1.
        assert loop.dispatch_order([4, 5]) == [5, 4]

    def test_reset_forgets_position(self):
        loop = LibEventLoop()
        loop.dispatch_order([1])
        loop.reset()
        assert loop.dispatch_order([2, 3]) == [2, 3]

    def test_empty_ready_set(self):
        loop = LibEventLoop()
        assert loop.dispatch_order([]) == []
        assert loop.cursor == 0


class TestProtocol:
    def setup_method(self):
        self.kernel = VirtualKernel()
        self.server = MemcachedServer(memcached_version("1.2.2"))
        self.server.attach(self.kernel)
        self.runtime = NativeRuntime(self.kernel, self.server,
                                     PROFILES["memcached"])
        self.client = VirtualClient(self.kernel, self.server.address)

    def cmd(self, data, now=0):
        response, _ = self.client.request(self.runtime, data, now)
        return response

    def test_set_and_get(self):
        assert self.cmd(b"set k 5 0 5\r\nhello\r\n") == b"STORED\r\n"
        assert self.cmd(b"get k\r\n") == b"VALUE k 5 5\r\nhello\r\nEND\r\n"

    def test_get_miss(self):
        assert self.cmd(b"get nope\r\n") == b"END\r\n"

    def test_multi_key_get(self):
        self.cmd(b"set a 0 0 1\r\nA\r\n")
        self.cmd(b"set b 0 0 1\r\nB\r\n")
        assert self.cmd(b"get a b missing\r\n") == \
            b"VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"

    def test_add_and_replace(self):
        assert self.cmd(b"add k 0 0 1\r\nx\r\n") == b"STORED\r\n"
        assert self.cmd(b"add k 0 0 1\r\ny\r\n") == b"NOT_STORED\r\n"
        assert self.cmd(b"replace k 0 0 1\r\nz\r\n") == b"STORED\r\n"
        assert self.cmd(b"replace nope 0 0 1\r\nw\r\n") == b"NOT_STORED\r\n"

    def test_append_prepend(self):
        self.cmd(b"set k 0 0 2\r\nbb\r\n")
        assert self.cmd(b"append k 0 0 2\r\ncc\r\n") == b"STORED\r\n"
        assert self.cmd(b"prepend k 0 0 2\r\naa\r\n") == b"STORED\r\n"
        assert self.cmd(b"get k\r\n") == b"VALUE k 0 6\r\naabbcc\r\nEND\r\n"
        assert self.cmd(b"append nope 0 0 1\r\nx\r\n") == b"NOT_STORED\r\n"

    def test_cas_lifecycle(self):
        self.cmd(b"set k 0 0 1\r\nv\r\n")
        reply = self.cmd(b"gets k\r\n")
        cas = int(reply.split(b"\r\n")[0].rsplit(b" ", 1)[1])
        assert self.cmd(b"cas k 0 0 1 %d\r\nw\r\n" % cas) == b"STORED\r\n"
        assert self.cmd(b"cas k 0 0 1 %d\r\nx\r\n" % cas) == b"EXISTS\r\n"
        assert self.cmd(b"cas nope 0 0 1 1\r\ny\r\n") == b"NOT_FOUND\r\n"

    def test_delete(self):
        self.cmd(b"set k 0 0 1\r\nv\r\n")
        assert self.cmd(b"delete k\r\n") == b"DELETED\r\n"
        assert self.cmd(b"delete k\r\n") == b"NOT_FOUND\r\n"

    def test_incr_decr(self):
        self.cmd(b"set n 0 0 2\r\n10\r\n")
        assert self.cmd(b"incr n 5\r\n") == b"15\r\n"
        assert self.cmd(b"decr n 20\r\n") == b"0\r\n"  # floors at zero
        assert self.cmd(b"incr missing 1\r\n") == b"NOT_FOUND\r\n"

    def test_incr_non_numeric(self):
        self.cmd(b"set k 0 0 3\r\nabc\r\n")
        assert b"CLIENT_ERROR" in self.cmd(b"incr k 1\r\n")

    def test_stats(self):
        self.cmd(b"set k 0 0 1\r\nv\r\n")
        self.cmd(b"get k\r\n")
        reply = self.cmd(b"stats\r\n")
        assert b"STAT cmd_get 1" in reply
        assert b"STAT cmd_set 1" in reply
        assert b"STAT curr_items 1" in reply
        assert reply.endswith(b"END\r\n")

    def test_flush_all(self):
        self.cmd(b"set k 0 0 1\r\nv\r\n")
        assert self.cmd(b"flush_all\r\n") == b"OK\r\n"
        assert self.cmd(b"get k\r\n") == b"END\r\n"

    def test_version_echo(self):
        assert self.cmd(b"version\r\n") == b"VERSION 1.2.2\r\n"

    def test_unknown_command(self):
        assert self.cmd(b"bogus\r\n") == b"ERROR\r\n"

    def test_data_block_may_contain_crlf_split_across_writes(self):
        # Header and body can arrive separately.
        assert self.cmd(b"set k 0 0 4\r\n") == b""
        assert self.cmd(b"ab\r\n\r\n") == b"STORED\r\n"
        assert self.cmd(b"get k\r\n") == b"VALUE k 0 4\r\nab\r\n\r\nEND\r\n"

    def test_binary_safe_values(self):
        self.cmd(b"set k 0 0 3\r\n\x00\x01\x02\r\n")
        assert self.cmd(b"get k\r\n") == b"VALUE k 0 3\r\n\x00\x01\x02\r\nEND\r\n"


class TestThreadingAndQuiescence:
    def test_worker_threads_live_in_event_loop(self):
        _, server, _ = deployment()
        workers = [t for t in server.threads
                   if t.inside_event_loop]
        assert len(workers) == 4

    def test_unadapted_update_fails_quiescence(self):
        _, _, mvedsua = deployment(adapted=False)
        attempt = mvedsua.request_update(memcached_version("1.2.3"), SECOND)
        assert not attempt.ok
        assert attempt.reason == "quiescence-failed"

    def test_adapted_update_succeeds(self):
        _, _, mvedsua = deployment(adapted=True)
        attempt = mvedsua.request_update(
            memcached_version("1.2.3"), SECOND,
            rules=memcached_rules("1.2.2", "1.2.3"))
        assert attempt.ok
        assert mvedsua.stage is Stage.OUTDATED_LEADER


class TestLibEventDivergence:
    """Paper §5.3/§6.2: the dispatch-memory timing error."""

    def run_scenario(self, reset):
        kernel, server, mvedsua = deployment(adapted=True, reset=reset)
        alice = VirtualClient(kernel, server.address, "alice")
        bob = VirtualClient(kernel, server.address, "bob")
        alice.command(mvedsua, b"get warm")  # cursor becomes odd
        mvedsua.request_update(memcached_version("1.2.3"), SECOND)
        # Two connections ready in the same iteration: dispatch order
        # now depends on the cursor.
        alice.send(b"set p 0 0 1\r\n1\r\n")
        bob.send(b"set q 0 0 1\r\n2\r\n")
        mvedsua.pump(2 * SECOND)
        return mvedsua, alice, bob

    def test_missing_reset_causes_spurious_divergence(self):
        mvedsua, alice, bob = self.run_scenario(reset=False)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        # Clients never noticed.
        assert alice.recv() == b"STORED\r\n"
        assert bob.recv() == b"STORED\r\n"

    def test_reset_callback_prevents_divergence(self):
        mvedsua, _, _ = self.run_scenario(reset=True)
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.last_divergence is None


class TestEveryInstallRebuildsLibEvent:
    """Kitsune relaunches threads, so an installed update starts LibEvent
    afresh whichever runtime ran it (under Mvedsua,
    ``TestLibEventDivergence`` shows the follower's fresh cursor)."""

    def test_standalone_update_resets_the_dispatch_cursor(self):
        stack = deploy("memcached", "1.2.2", NativeRuntime,
                       with_kitsune=True)
        stack.client().command(stack.runtime, b"get warm")
        assert stack.server.libevent.cursor == 1
        attempt = stack.runtime.apply_update(
            Kitsune(stack.app.transforms), stack.app.version("1.2.3"),
            SECOND)
        assert attempt.ok
        assert stack.server.libevent.cursor == 0


class TestStateTransformBug:
    """Paper §6.2: the freed-LibEvent-memory transformer bug."""

    def buggy_transforms(self):
        registry = TransformRegistry()
        registry.register("memcached", "1.2.2", "1.2.3",
                          xform_free_libevent)
        return registry

    def connect_many(self, kernel, server, mvedsua, count):
        clients = [VirtualClient(kernel, server.address, f"c{i}")
                   for i in range(count)]
        for index, client in enumerate(clients):
            client.command(mvedsua, b"set k%d 0 0 1\r\nv" % index)
        return clients

    def test_crash_under_many_clients_is_tolerated(self):
        kernel, server, mvedsua = deployment(
            transforms=self.buggy_transforms())
        clients = self.connect_many(kernel, server, mvedsua,
                                    MANY_CLIENTS_THRESHOLD + 1)
        mvedsua.request_update(memcached_version("1.2.3"), SECOND)
        reply = clients[0].command(mvedsua, b"get k0", now=2 * SECOND)
        assert reply == b"VALUE k0 0 1\r\nv\r\nEND\r\n"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()

    def test_no_crash_with_few_clients(self):
        kernel, server, mvedsua = deployment(
            transforms=self.buggy_transforms())
        clients = self.connect_many(kernel, server, mvedsua, 2)
        mvedsua.request_update(memcached_version("1.2.3"), SECOND)
        clients[0].command(mvedsua, b"get k0", now=2 * SECOND)
        # The bug is latent: too few clients to trigger reuse.
        assert mvedsua.stage is Stage.OUTDATED_LEADER


class TestUpdatesUnderMvedsua:
    def test_full_lifecycle_with_no_rules(self):
        kernel, server, mvedsua = deployment()
        client = VirtualClient(kernel, server.address)
        client.command(mvedsua, b"set k 0 0 5\r\nhello")
        rules = memcached_rules("1.2.2", "1.2.3")
        assert len(rules) == 0  # the paper wrote none for Memcached
        mvedsua.request_update(memcached_version("1.2.3"), SECOND,
                               rules=rules)
        client.command(mvedsua, b"set k2 0 0 1\r\nx", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        mvedsua.finalize(4 * SECOND)
        assert mvedsua.current_version == "1.2.3"
        assert client.command(mvedsua, b"get k", now=5 * SECOND) == \
            b"VALUE k 0 5\r\nhello\r\nEND\r\n"

    def test_chained_updates_122_to_124(self):
        kernel, server, mvedsua = deployment()
        client = VirtualClient(kernel, server.address)
        client.command(mvedsua, b"set k 0 0 1\r\nv")
        for old, new in (("1.2.2", "1.2.3"), ("1.2.3", "1.2.4")):
            mvedsua.request_update(memcached_version(new), SECOND,
                                   rules=memcached_rules(old, new))
            client.command(mvedsua, b"get k", now=2 * SECOND)
            mvedsua.promote(3 * SECOND)
            mvedsua.finalize(4 * SECOND)
        assert mvedsua.current_version == "1.2.4"
        assert client.command(mvedsua, b"version", now=5 * SECOND) == \
            b"VERSION 1.2.4\r\n"
