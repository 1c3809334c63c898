"""A dropped deployment dies at once, by reference counting alone.

Nothing below a deployment points back up at it, and a callback never
holds its owner — so the last reference to a stack going away frees its
kernel, runtimes, process images and connections right there, without
waiting for a cyclic collection that may never run inside a long
experiment (``repro ablations`` builds four 200k-entry images in a row).

Each case runs with the cyclic collector disabled, takes weak
references to everything the stack owns as it goes, drops the stack and
its clients, and asserts every reference is dead.  There is no
``gc.collect()``: a reference cycle anywhere in the stack keeps its
objects alive and fails the case.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import Stack, app, default_catalog, deploy
from repro.core import Mvedsua, Stage
from repro.errors import ServerCrash
from repro.mve import VaranRuntime
from repro.net import RingLink, VirtualKernel
from repro.servers.kvstore import KVStoreServer, KVStoreV1
from repro.servers.memcached import MemcachedServer
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES


@pytest.fixture(autouse=True)
def no_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Tracked:
    """Weak references to what a stack owns, taken as the run goes."""

    def __init__(self) -> None:
        self.refs = []

    def add(self, obj) -> None:
        self.refs.append(weakref.ref(obj))

    def stack(self, kernel, runtime) -> None:
        """The kernel, the runtime (and the VaranRuntime under a
        Mvedsua), every server it runs and every connection endpoint."""
        self.add(kernel)
        self.add(runtime)
        inner = getattr(runtime, "runtime", runtime)
        self.add(inner)
        if isinstance(inner, NativeRuntime):
            self.add(inner.server)
        else:
            self.add(inner.leader.server)
            for lane in inner.lanes:
                self.add(lane.process.server)
        for connection in kernel._connections.values():
            self.add(connection.client)
            self.add(connection.server)

    def alive(self):
        return [ref() for ref in self.refs if ref() is not None]


def assert_all_freed(scenario):
    """Run ``scenario(tracked)``; once it returns (dropping the stack
    and its clients), nothing it tracked may still be alive."""
    tracked = Tracked()
    scenario(tracked)
    assert tracked.refs
    alive = tracked.alive()
    assert not alive, f"outlived the deployment: {alive!r}"


CASES = [(name, runtime) for name in sorted(default_catalog())
         for runtime in (NativeRuntime, VaranRuntime, Mvedsua)]


@pytest.mark.parametrize("name,runtime", CASES, ids=[
    f"{name}-{runtime.__name__}" for name, runtime in CASES])
def test_every_app_under_every_runtime_dies_with_its_stack(name, runtime):
    def scenario(tracked):
        stack = deploy(name, app(name).labels()[0], runtime)
        client = stack.client()
        client.command(stack.runtime, b"PING")
        stack.client("second").close()
        tracked.stack(stack.kernel, stack.runtime)

    assert_all_freed(scenario)


def test_a_full_update_promote_finalize_dies_with_its_stack():
    def scenario(tracked):
        stack = deploy("kvstore", "1.0")
        client, mvedsua = stack.client(), stack.runtime
        client.command(mvedsua, b"PUT a 1")
        assert stack.update("2.0", SECOND).ok
        tracked.stack(stack.kernel, mvedsua)  # both versions alive
        client.command(mvedsua, b"GET a", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        mvedsua.finalize(4 * SECOND)
        assert mvedsua.current_version == "2.0"
        assert mvedsua.last_outcome().succeeded()

    assert_all_freed(scenario)


def test_a_divergent_update_dies_with_its_stack():
    def scenario(tracked):
        stack = deploy("kvstore", "1.0")
        client, mvedsua = stack.client(), stack.runtime
        client.command(mvedsua, b"PUT a 1")
        assert stack.update("2.0-buggy", SECOND).ok
        tracked.stack(stack.kernel, mvedsua)
        client.command(mvedsua, b"GET a", now=2 * SECOND)
        assert "divergence" in mvedsua.runtime.event_kinds()
        assert mvedsua.runtime.last_divergence is not None
        assert mvedsua.stage is Stage.SINGLE_LEADER

    assert_all_freed(scenario)


class CrashingV1(KVStoreV1):
    """The old version's bug the new one fixed: ``BOOM`` kills it."""

    def handle(self, heap, request, session=None, io=None):
        if request.startswith(b"BOOM"):
            raise ServerCrash("old-version bug")
        return super().handle(heap, request, session)


def crashing_stack():
    kernel = VirtualKernel()
    server = KVStoreServer(CrashingV1())
    server.attach(kernel)
    config = app("kvstore")
    return Stack(kernel, server,
                 Mvedsua(kernel, server, PROFILES["kvstore"],
                         transforms=config.transforms), config)


def test_a_leader_crash_dies_with_its_stack():
    def scenario(tracked):
        stack = crashing_stack()
        client, mvedsua = stack.client(), stack.runtime
        client.command(mvedsua, b"PUT a 1")
        assert stack.update("2.0", SECOND).ok
        tracked.stack(stack.kernel, mvedsua)
        client.command(mvedsua, b"BOOM", now=2 * SECOND)
        assert "follower-promoted-after-crash" in \
            mvedsua.runtime.event_kinds()
        assert mvedsua.current_version == "2.0"

    assert_all_freed(scenario)


def test_a_ring_link_backed_pair_dies_with_its_stack():
    def scenario(tracked):
        stack = deploy("kvstore", "1.0",
                       ring_link=RingLink(latency_ns=200_000, window=4))
        client, mvedsua = stack.client(), stack.runtime
        client.command(mvedsua, b"PUT a 1")
        assert stack.update("2.0", SECOND).ok
        tracked.stack(stack.kernel, mvedsua)
        tracked.add(mvedsua.runtime.ring)
        for index in range(8):
            client.command(mvedsua, b"GET a", now=2 * SECOND + index)
        mvedsua.promote(3 * SECOND)
        mvedsua.finalize(4 * SECOND)

    assert_all_freed(scenario)


def test_a_two_lane_group_dies_with_its_stack():
    def scenario(tracked):
        stack = deploy("kvstore", "1.0", VaranRuntime)
        client, runtime = stack.client(), stack.runtime
        client.command(runtime, b"PUT a 1")
        runtime.fork_follower(SECOND)
        runtime.fork_follower(SECOND)
        assert len(runtime.lanes) == 2
        tracked.stack(stack.kernel, runtime)
        client.command(runtime, b"GET a", now=2 * SECOND)
        runtime.drain_follower()

    assert_all_freed(scenario)


#: One step of an operator's session against a kvstore 1.0 deployment;
#: a step the current stage does not allow is skipped.
STEPS = ("put", "get", "update", "update-buggy", "promote", "finalize",
         "rollback", "boom", "connect", "disconnect")


def run_steps(steps, tracked):
    stack = crashing_stack()
    mvedsua = stack.runtime
    clients = [stack.client()]
    now = 0
    tracked.stack(stack.kernel, mvedsua)
    for step in steps:
        now += SECOND
        stage = mvedsua.stage
        if step == "put" and clients:
            clients[-1].command(mvedsua, b"PUT k %d" % now, now=now)
        elif step == "get" and clients:
            clients[-1].command(mvedsua, b"GET k", now=now)
        elif step.startswith("update") and stage is Stage.SINGLE_LEADER \
                and mvedsua.current_version == "1.0":
            label = "2.0-buggy" if step == "update-buggy" else "2.0"
            stack.update(label, now)
        elif step == "promote" and stage is Stage.OUTDATED_LEADER:
            mvedsua.promote(now)
        elif step == "finalize" and stage is Stage.UPDATED_LEADER:
            mvedsua.finalize(now)
        elif step == "rollback" and stage is Stage.OUTDATED_LEADER:
            mvedsua.rollback(now)
        elif step == "boom" and stage is Stage.OUTDATED_LEADER and clients:
            # Only with a follower to promote: alone, the leader's
            # crash ends the deployment.
            clients[-1].command(mvedsua, b"BOOM", now=now)
        elif step == "connect":
            clients.append(stack.client(f"client-{len(clients)}"))
        elif step == "disconnect" and clients:
            clients.pop().close()
        tracked.stack(stack.kernel, mvedsua)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(STEPS), max_size=12))
def test_any_lifecycle_dies_with_its_stack(steps):
    assert_all_freed(lambda tracked: run_steps(steps, tracked))


def test_a_forked_followers_abort_hook_resets_its_own_libevent():
    # ``fork`` deep-copies the server: a hook that closed over the
    # leader's LibEvent (rather than being rebound to the copy's) would
    # reset the leader's cursor when the follower aborts.
    kernel = VirtualKernel()
    leader = MemcachedServer()
    leader.attach(kernel)
    leader.libevent.dispatch_order([5, 6, 7])
    follower = leader.fork()
    assert follower.libevent is not leader.libevent
    assert follower.libevent.cursor == leader.libevent.cursor == 3
    follower.run_abort_callback()
    assert follower.libevent.cursor == 0
    assert leader.libevent.cursor == 3
    leader.run_abort_callback()
    assert leader.libevent.cursor == 0


def test_an_openloop_cell_frees_its_stack_and_the_memo_holds_none(
        monkeypatch):
    """An open-loop cell's stack dies when the cell returns, and the
    stream memo its scenario's cells share reaches nothing a cell
    built."""
    from repro.obs.trace import Tracer
    from repro.workloads import openloop_scenarios
    from repro.workloads.openloop_scenarios import (run_openloop_cell,
                                                    shared_stream)
    tracked = Tracked()
    deploy_cell = openloop_scenarios._stack

    def tracking(scenario, mode):
        stack = deploy_cell(scenario, mode)
        tracked.add(stack)
        tracked.stack(stack.kernel, stack.runtime)
        return stack

    monkeypatch.setattr(openloop_scenarios, "_stack", tracking)
    shared_stream.cache_clear()
    for cell in (1, 4):  # mve-open, mvedsua-open
        run_openloop_cell("redis", cell, 1, True)
    assert tracked.refs
    alive = tracked.alive()
    assert not alive, f"outlived the cell: {alive!r}"

    owned = (Stack, VirtualKernel, NativeRuntime, VaranRuntime, Mvedsua,
             Tracer)
    seen, frontier = set(), [shared_stream("redis", 1, True)]
    assert shared_stream.cache_info().currsize == 1
    while frontier:
        obj = frontier.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue  # a class leads to its module, not to run state
        seen.add(id(obj))
        assert not isinstance(obj, owned), f"the memo reaches {obj!r}"
        frontier.extend(gc.get_referents(obj))
