"""Unit tests for the shared server skeleton (fork, sessions, framing)."""

import types

import pytest
from hypothesis import example, given, strategies as st

from repro.apps import default_catalog, deploy
from repro.dsu.program import ThreadState, UpdatableProgram
from repro.dsu.version import ServerVersion
from repro.libevent import LibEventLoop
from repro.mve.gateway import SyscallGateway
from repro.net import VirtualKernel
from repro.servers.base import Server, Session
from repro.servers.kvstore import KVStoreServer, KVStoreV1
from repro.servers.memcached import MemcachedServer
from repro.servers.native import NativeRuntime
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def deployment():
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = NativeRuntime(kernel, server, PROFILES["kvstore"])
    client = VirtualClient(kernel, server.address)
    return kernel, server, runtime, client


class TestFork:
    def test_fork_deep_copies_heap(self):
        kernel, server, runtime, client = deployment()
        client.command(runtime, b"PUT shared before")
        child = server.fork()
        # Mutating the parent does not leak into the child...
        client.command(runtime, b"PUT shared after")
        assert child.heap["table"]["shared"] == "before"
        # ...and vice versa.
        child.heap["table"]["child-only"] = "x"
        assert "child-only" not in server.heap["table"]

    def test_fork_deep_copies_sessions(self):
        kernel, server, runtime, client = deployment()
        client.command(runtime, b"PUT a 1")
        child = server.fork()
        parent_session = next(iter(server.sessions.values()))
        child_session = next(iter(child.sessions.values()))
        assert parent_session is not child_session
        assert parent_session.fd == child_session.fd

    def test_fork_shares_kernel_but_not_gateway(self):
        kernel, server, runtime, client = deployment()
        child = server.fork()
        assert child.kernel is kernel
        assert not hasattr(child, "gateway")
        assert child.domain == server.domain

    def test_fork_preserves_program_linkage(self):
        _, server, _, _ = deployment()
        child = server.fork()
        assert isinstance(child, UpdatableProgram)
        assert child.threads is not server.threads
        assert child.threads == server.threads
        assert all(mine is not theirs for mine, theirs
                   in zip(child.threads, server.threads))

    def test_fork_copies_the_heap_once_for_all_its_aliases(self):
        # The heap and each session's state go through clone_heap; one
        # memo must span them, or a session holding a heap sub-container
        # would get a second, diverging copy of it.
        kernel, server, runtime, client = deployment()
        client.command(runtime, b"PUT a 1")
        session = next(iter(server.sessions.values()))
        session.state["pinned"] = server.heap["table"]
        child = server.fork()
        child_session = next(iter(child.sessions.values()))
        assert child_session.state["pinned"] is child.heap["table"]
        assert child.heap["table"] is not server.heap["table"]
        assert child.heap == server.heap
        assert server.kernel is kernel


#: What a fork must give the child its own copy of (a server is an
#: ``UpdatableProgram``, so the walk's start counts as one).
PRIVATE = (dict, list, set, Session, ThreadState, UpdatableProgram,
           LibEventLoop)
#: What a fork shares: the kernel view and the version's code.  No
#: server holds a gateway; a walk that met one would skip it.
SHARED = (VirtualKernel, ServerVersion, SyscallGateway)


def private_objects(server):
    """``id`` -> object, for every :data:`PRIVATE` object reachable from
    ``server`` through containers, instance attributes and bound
    methods, but not through a :data:`SHARED` one."""
    found, seen, stack = {}, set(), [server]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, SHARED):
            continue
        seen.add(id(value))
        if isinstance(value, PRIVATE):
            found[id(value)] = value
        if isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, (list, set, tuple, frozenset)):
            stack.extend(value)
        elif isinstance(value, types.MethodType):
            stack.append(value.__self__)
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            stack.extend(vars(value).values())
    return found


@pytest.mark.parametrize("name", sorted(default_catalog()))
def test_a_fork_shares_no_mutable_state_with_its_parent(name):
    config = default_catalog()[name]
    stack = deploy(config, config.labels()[0], NativeRuntime)
    client = stack.client()
    for request in config.seed_requests or (b"USER anonymous",):
        client.command(stack.runtime, request)
    parent = stack.server
    assert parent.sessions
    child = parent.fork()
    assert isinstance(child, UpdatableProgram)
    assert child.version is parent.version   # code, shared
    mine, theirs = private_objects(child), private_objects(parent)
    kinds = {type(value) for value in mine.values()}
    assert {Session, ThreadState, dict} <= kinds
    assert not set(mine) & set(theirs)
    if isinstance(parent, MemcachedServer):
        assert LibEventLoop in kinds
        assert child.abort_callback.__self__ is child.libevent
        assert parent.abort_callback.__self__ is parent.libevent


class TestSessions:
    def test_session_created_on_accept(self):
        kernel, server, runtime, client = deployment()
        runtime.pump(0)
        assert set(server.sessions) == {next(iter(server.sessions))}
        session = next(iter(server.sessions.values()))
        assert isinstance(session, Session)
        assert session.buffer == b""

    def test_unknown_fd_session_adopted(self):
        """A follower forked before a connection existed adopts its
        session on first read (the _service_fd fallback)."""
        kernel, server, runtime, client = deployment()
        # Simulate the fallback directly: drop the session record.
        client.command(runtime, b"PUT a 1")
        fd = next(iter(server.sessions))
        del server.sessions[fd]
        assert client.command(runtime, b"GET a") == b"1\r\n"
        assert fd in server.sessions

    def test_apply_version_rewires_program(self):
        from repro.servers.kvstore import KVStoreV2
        _, server, _, _ = deployment()
        new_heap = {"table": {}}
        server.apply_version(KVStoreV2(), new_heap)
        assert server.version.name == "2.0"
        assert server.heap is new_heap


def frame_line_by_line(buffer):
    """CRLF framing as the skeleton did it before it split once: one
    ``split(b"\\r\\n", 1)`` per line, re-copying the tail each time
    (quadratic in a pipelined burst).  Kept as the reference."""
    requests = []
    while b"\r\n" in buffer:
        line, buffer = buffer.split(b"\r\n", 1)
        requests.append(line)
    return requests, buffer


#: Buffers built from the pieces framing can get wrong, and raw bytes.
_BUFFERS = st.lists(
    st.sampled_from([b"", b"\r", b"\n", b"\r\n", b"\r\r\n", b"GET k",
                     b"PUT a 1", b" "]) | st.binary(max_size=6),
    max_size=40).map(b"".join)


class TestFraming:
    @given(_BUFFERS)
    @example(b"GET k")                      # no terminator: nothing framed
    @example(b"GET k\r")                    # lone CR stays buffered
    @example(b"\r\n\r\nGET k\r\n\r\n")     # empty lines are requests
    @example(b"GET k\r\n" * 1_000)          # a pipelined burst
    def test_one_split_frames_like_the_line_by_line_loop(self, buffer):
        session = Session(fd=4, buffer=buffer)
        requests = KVStoreServer(KVStoreV1())._frame_requests(session)
        assert (requests, session.buffer) == frame_line_by_line(buffer)

    def test_memcached_still_frames_its_own_way(self):
        # A storage command's data block may itself hold CRLF; only the
        # override's byte count frames it.
        session = Session(fd=4, buffer=b"set k 0 0 4\r\na\r\nb\r\n"
                                       b"get k\r\nget")
        requests = MemcachedServer()._frame_requests(session)
        assert requests == [b"set k 0 0 4\r\na\r\nb", b"get k"]
        assert session.buffer == b"get"

    def test_carriage_return_required(self):
        kernel, server, runtime, client = deployment()
        reply, _ = client.request(runtime, b"PUT a 1\n", 0)  # bare LF
        assert reply == b""  # buffered, not framed
        reply, _ = client.request(runtime, b"\r\n", 10)
        # Now framed as "PUT a 1\n" + "" -> first is malformed-ish but
        # handled; the server never wedges.
        assert reply.endswith(b"\r\n")

    def test_empty_line_is_a_request(self):
        kernel, server, runtime, client = deployment()
        reply, _ = client.request(runtime, b"\r\n", 0)
        assert reply == b"-ERR unknown command\r\n"

    def test_greeting_hook_default_empty(self):
        _, server, runtime, _ = deployment()
        assert server.on_connect(Session(fd=99)) == []
