"""Unit tests for the syscall gateways (direct and replay roles)."""

import pytest

from repro.errors import ConnectionReset, DivergenceError
from repro.mve.divergence import check_match
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.net import VirtualKernel
from repro.servers.kvstore import KVStoreServer, KVStoreV1
from repro.syscalls.model import Sys, SyscallRecord
from repro.workloads import VirtualClient

ADDR = ("10.0.0.1", 80)


@pytest.fixture
def kernel():
    return VirtualKernel()


@pytest.fixture
def direct(kernel):
    domain = kernel.create_domain()
    return SyscallGateway(kernel, domain, GatewayRole.DIRECT)


def make_replay(kernel, expected):
    domain = kernel.create_domain()
    gateway = SyscallGateway(kernel, domain, GatewayRole.REPLAY)
    gateway.begin_iteration(expected)
    return gateway


class TestDirectRole:
    def test_socket_lifecycle_traced(self, kernel, direct):
        listen_fd = direct.listen(ADDR)
        client_domain = kernel.create_domain()
        client_fd = kernel.connect(client_domain, ADDR)
        fd = direct.accept(listen_fd)
        kernel.write(client_domain, client_fd, b"hi")
        assert direct.read(fd) == b"hi"
        direct.write(fd, b"yo")
        direct.close(fd)
        names = [record.name for record in direct.trace.records]
        assert names == [Sys.LISTEN, Sys.ACCEPT, Sys.READ, Sys.WRITE,
                         Sys.CLOSE]
        assert direct.trace.bytes_transferred == 4

    def test_epoll_ctl_is_untraced_kernel_state(self, kernel, direct):
        listen_fd = direct.listen(ADDR)
        epfd = kernel.epoll_create(direct.domain)
        direct.begin_iteration()
        direct.epoll_ctl(epfd, listen_fd, add=True)
        assert direct.trace.records == []

    def test_epoll_wait_records_ready_set(self, kernel, direct):
        listen_fd = direct.listen(ADDR)
        epfd = kernel.epoll_create(direct.domain)
        direct.epoll_ctl(epfd, listen_fd, add=True)
        kernel.connect(kernel.create_domain(), ADDR)
        direct.begin_iteration()
        ready = direct.epoll_wait(epfd)
        assert ready == [listen_fd]
        record = direct.trace.records[0]
        assert record.name is Sys.EPOLL_WAIT
        assert record.result == (listen_fd,)

    def test_fs_ops_traced_and_applied(self, kernel, direct):
        direct.begin_iteration()
        direct.fs_write("/f", b"data")
        assert kernel.fs.read_file("/f") == b"data"
        assert direct.fs_read("/f") == b"data"
        assert direct.fs_stat("/f") == 4
        direct.fs_rename("/f", "/g")
        direct.fs_append("/g", b"+more")
        assert kernel.fs.read_file("/g") == b"data+more"
        direct.fs_unlink("/g")
        assert not kernel.fs.exists("/g")
        assert direct.fs_stat("/g") is None
        names = [r.name for r in direct.trace.records]
        assert Sys.RENAME in names and Sys.UNLINK in names

    def test_fs_dir_ops(self, kernel, direct):
        direct.begin_iteration()
        direct.fs_mkdir("/d")
        assert direct.fs_is_dir("/d")
        assert direct.fs_listdir("/") == ["d"]
        direct.fs_rmdir("/d")
        assert not kernel.fs.is_dir("/d")

    def test_note_request_counts(self, kernel):
        # The server loop counts every framed request on the
        # iteration's trace: three pipelined in one read are three.
        server = KVStoreServer(KVStoreV1())
        server.attach(kernel)
        gateway = SyscallGateway(kernel, server.domain, GatewayRole.DIRECT)
        client = VirtualClient(kernel, server.address)
        gateway.begin_iteration()
        server.run_iteration(gateway)  # accepts the connection
        assert gateway.trace.requests_handled == 0
        client.send(b"PUT a 1\r\nGET a\r\nGET b\r\n")
        gateway.begin_iteration()
        server.run_iteration(gateway)
        assert gateway.trace.requests_handled == 3


class TestReplayRole:
    def test_read_serves_recorded_data(self, kernel):
        expected = [SyscallRecord(Sys.READ, fd=4, data=b"GET k\r\n",
                                  result=7)]
        gateway = make_replay(kernel, expected)
        assert gateway.read(4) == b"GET k\r\n"
        gateway.finish_iteration()

    def test_matching_write_accepted(self, kernel):
        expected = [SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n",
                                  result=5)]
        gateway = make_replay(kernel, expected)
        assert gateway.write(4, b"+OK\r\n") == 5
        gateway.finish_iteration()

    def test_mismatched_write_data_diverges(self, kernel):
        expected = [SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n")]
        gateway = make_replay(kernel, expected)
        with pytest.raises(DivergenceError, match="mismatch"):
            gateway.write(4, b"-ERR\r\n")

    def test_mismatched_fd_diverges(self, kernel):
        expected = [SyscallRecord(Sys.WRITE, fd=4, data=b"x")]
        gateway = make_replay(kernel, expected)
        with pytest.raises(DivergenceError):
            gateway.write(9, b"x")

    def test_extra_syscall_diverges(self, kernel):
        gateway = make_replay(kernel, [])
        with pytest.raises(DivergenceError, match="extra"):
            gateway.write(4, b"anything")

    def test_missing_syscall_diverges_at_iteration_end(self, kernel):
        expected = [SyscallRecord(Sys.WRITE, fd=4, data=b"x")]
        gateway = make_replay(kernel, expected)
        with pytest.raises(DivergenceError, match="fewer"):
            gateway.finish_iteration()

    def test_accept_returns_recorded_fd(self, kernel):
        expected = [SyscallRecord(Sys.ACCEPT, fd=3, result=7)]
        gateway = make_replay(kernel, expected)
        assert gateway.accept(3) == 7

    def test_listen_returns_recorded_fd(self, kernel):
        expected = [SyscallRecord(Sys.LISTEN, data=b"127.0.0.1:20000",
                                  result=9)]
        gateway = make_replay(kernel, expected)
        assert gateway.listen(("127.0.0.1", 20000)) == 9

    def test_epoll_wait_returns_recorded_ready_set(self, kernel):
        expected = [SyscallRecord(Sys.EPOLL_WAIT, fd=3, result=(5, 6))]
        gateway = make_replay(kernel, expected)
        assert gateway.epoll_wait(3) == [5, 6]

    def test_replay_never_touches_kernel(self, kernel):
        expected = [
            SyscallRecord(Sys.OPEN, data=b"/f", result=0),
            SyscallRecord(Sys.WRITE, fd=-2, data=b"data", result=4),
        ]
        gateway = make_replay(kernel, expected)
        gateway.fs_write("/f", b"data")
        # The virtual fs was NOT modified: the leader already did it.
        assert not kernel.fs.exists("/f")

    def test_replay_fs_read_serves_recorded_content(self, kernel):
        expected = [
            SyscallRecord(Sys.OPEN, data=b"/f", result=0),
            SyscallRecord(Sys.READ, fd=-2, data=b"contents", result=8),
        ]
        gateway = make_replay(kernel, expected)
        assert gateway.fs_read("/f") == b"contents"

    def test_replay_stat_serves_recorded_result(self, kernel):
        expected = [SyscallRecord(Sys.STAT, data=b"/f", result=123)]
        gateway = make_replay(kernel, expected)
        assert gateway.fs_stat("/f") == 123

    def test_epoll_ctl_is_a_noop(self, kernel):
        gateway = make_replay(kernel, [])
        gateway.epoll_ctl(3, 4, add=True)  # must not touch the kernel
        gateway.finish_iteration()


# ---------------------------------------------------------------------------
# Every REPLAY site × every way the expected stream can disagree.
#
# The gateway tests the expected record's fields in place and builds the
# follower's own record only for a divergence report.  The reference
# below is the straightforward formulation it must stay equivalent to:
# build that record eagerly and hand both to ``check_match`` — always at
# a full-compare site, and only after the site's cheap pre-test fails
# where the leader's record is an *input* (read data, stat answers).
# ---------------------------------------------------------------------------

FULL, NAME_FD, NAME_ONLY = "full", "name+fd", "name-only"


class Site:
    """One expected-record position inside one gateway method."""

    def __init__(self, label, call, actual, compare, emits, *,
                 before=(), after=(), result=0, returns=None):
        self.label = label
        #: gateway -> the method's return value.
        self.call = call
        #: The record the follower's call amounts to.
        self.actual = actual
        self.compare = compare
        #: Which side lands in the follower's trace on a match.
        self.emits = emits
        #: Correct records for the method's other positions.
        self.before, self.after = list(before), list(after)
        #: The kernel result the leader recorded at this position.
        self.result = result
        #: matched expected record -> the call's return value.
        self.returns = returns

    def __repr__(self):
        return self.label


_OPEN = SyscallRecord(Sys.OPEN, data=b"/f", result=0)

SITES = [
    Site("epoll_wait", lambda g: g.epoll_wait(3),
         SyscallRecord(Sys.EPOLL_WAIT, fd=3), FULL, "expected",
         result=(5, 6), returns=lambda e: [5, 6]),
    Site("accept", lambda g: g.accept(3),
         SyscallRecord(Sys.ACCEPT, fd=3), FULL, "expected",
         result=7, returns=lambda e: 7),
    Site("connect", lambda g: g.connect(ADDR),
         SyscallRecord(Sys.CONNECT, data=b"10.0.0.1:80"), FULL, "expected",
         result=7, returns=lambda e: 7),
    Site("listen", lambda g: g.listen(ADDR),
         SyscallRecord(Sys.LISTEN, data=b"10.0.0.1:80"), FULL, "expected",
         result=7, returns=lambda e: 7),
    Site("read", lambda g: g.read(4),
         SyscallRecord(Sys.READ, fd=4), NAME_FD, "expected",
         returns=lambda e: e.data),
    Site("write", lambda g: g.write(4, b"+OK\r\n"),
         SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n", result=5),
         FULL, "actual", returns=lambda e: 5),
    Site("close", lambda g: g.close(4),
         SyscallRecord(Sys.CLOSE, fd=4), FULL, "actual"),
    Site("fs_read[open]", lambda g: g.fs_read("/f"),
         SyscallRecord(Sys.OPEN, data=b"/f"), FULL, "expected",
         after=[SyscallRecord(Sys.READ, fd=-2, data=b"body", result=4)]),
    Site("fs_read[read]", lambda g: g.fs_read("/f"),
         SyscallRecord(Sys.READ, fd=-2), NAME_ONLY, "expected",
         before=[_OPEN], returns=lambda e: e.data),
    Site("fs_write[open]", lambda g: g.fs_write("/f", b"body"),
         SyscallRecord(Sys.OPEN, data=b"/f"), FULL, "expected",
         after=[SyscallRecord(Sys.WRITE, fd=-2, data=b"body", result=4)]),
    Site("fs_write[write]", lambda g: g.fs_write("/f", b"body"),
         SyscallRecord(Sys.WRITE, fd=-2, data=b"body", result=4), FULL,
         "expected", before=[_OPEN]),
    Site("fs_append", lambda g: g.fs_append("/aof", b"SET k v\r\n"),
         SyscallRecord(Sys.WRITE, fd=-3, data=b"SET k v\r\n", result=9),
         FULL, "actual"),
    Site("fs_unlink", lambda g: g.fs_unlink("/f"),
         SyscallRecord(Sys.UNLINK, data=b"/f", result=0), FULL, "actual"),
    Site("fs_rename", lambda g: g.fs_rename("/f", "/g"),
         SyscallRecord(Sys.RENAME, data=b"/f\x00/g", result=0), FULL,
         "actual"),
    Site("fs_mkdir", lambda g: g.fs_mkdir("/d"),
         SyscallRecord(Sys.MKDIR, data=b"/d", result=0), FULL, "actual"),
    Site("fs_rmdir", lambda g: g.fs_rmdir("/d"),
         SyscallRecord(Sys.RMDIR, data=b"/d", result=0), FULL, "actual"),
    Site("fs_stat", lambda g: g.fs_stat("/f"),
         SyscallRecord(Sys.STAT, data=b"/f"), NAME_ONLY, "expected",
         result=123, returns=lambda e: 123),
    Site("fs_is_dir", lambda g: g.fs_is_dir("/d"),
         SyscallRecord(Sys.STAT, data=b"d:/d"), NAME_ONLY, "expected",
         result=True, returns=lambda e: True),
    Site("fs_listdir", lambda g: g.fs_listdir("/d"),
         SyscallRecord(Sys.STAT, data=b"/d/"), NAME_ONLY, "expected",
         result=("a", "b"), returns=lambda e: ["a", "b"]),
]

#: scenario -> the record the leader's stream holds at the site, given
#: the follower's own record and the leader's result (None: the stream
#: ends there).
SCENARIOS = {
    "match": lambda a, r: SyscallRecord(a.name, a.fd, a.data, r),
    "wrong-name": lambda a, r: SyscallRecord(Sys.FORK, a.fd, a.data, r),
    "wrong-fd": lambda a, r: SyscallRecord(a.name, a.fd + 1, a.data, r),
    "wrong-payload": lambda a, r: SyscallRecord(a.name, a.fd,
                                                a.data + b"?", r),
    "exhausted": lambda a, r: None,
    "wildcard": lambda a, r: SyscallRecord(a.name, a.fd + 1, a.data + b"?",
                                           r, {"wildcard": True}),
    "error": lambda a, r: SyscallRecord(a.name, a.fd, a.data, r,
                                        {"error": "ECONNRESET"}),
}

#: Sites that re-raise a recorded errno instead of returning.
_REPLAYS_ERRNO = {"accept", "read", "write"}


def reference_divergence(site, expected):
    """``(text, expected, actual)`` of the divergence the eager
    formulation reports at ``site``, or None when it accepts."""
    pretest_passes = expected is not None \
        and expected.name is site.actual.name \
        and (site.compare == NAME_ONLY or expected.fd == site.actual.fd)
    if site.compare != FULL and pretest_passes:
        return None
    try:
        check_match(expected, site.actual)
    except DivergenceError as divergence:
        return str(divergence), divergence.expected, divergence.actual
    return None


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("site", SITES, ids=repr)
def test_replay_site_agrees_with_eager_reference(kernel, site, scenario):
    expected = SCENARIOS[scenario](site.actual, site.result)
    stream = site.before + ([] if expected is None else [expected])
    if expected is not None:
        stream += site.after
    gateway = make_replay(kernel, stream)
    predicted = reference_divergence(site, expected)

    if predicted is not None:
        with pytest.raises(DivergenceError) as raised:
            site.call(gateway)
        assert (str(raised.value), raised.value.expected,
                raised.value.actual) == predicted
        # Nothing from the diverging position reached the trace.
        assert gateway.trace.records == site.before
        return

    if scenario == "error" and site.label in _REPLAYS_ERRNO:
        with pytest.raises(ConnectionReset,
                           match=f"replayed ECONNRESET on {site.label} fd"):
            site.call(gateway)
        assert gateway.trace.records == [expected]
        gateway.finish_iteration()
        return

    result = site.call(gateway)
    if site.returns is not None:
        assert result == site.returns(expected)
    emitted = expected if site.emits == "expected" else site.actual
    assert gateway.trace.records == site.before + [emitted] + site.after
    if site.emits == "expected":  # the leader's record itself, not a copy
        assert gateway.trace.records[len(site.before)] is expected
    gateway.finish_iteration()


@pytest.mark.parametrize("site", SITES, ids=repr)
def test_replay_site_leftover_record_diverges_at_drain(kernel, site):
    match = SCENARIOS["match"](site.actual, site.result)
    leftover = SyscallRecord(Sys.CLOSE, fd=9)
    gateway = make_replay(kernel,
                          site.before + [match] + site.after + [leftover])
    site.call(gateway)
    with pytest.raises(DivergenceError) as raised:
        gateway.finish_iteration()
    assert str(raised.value) == (
        "divergence (follower issued fewer syscalls): leader expected "
        "close(fd=9), follower issued <nothing>")
    assert raised.value.expected is leftover
    assert raised.value.actual is None


class TestDivergenceText:
    """The report text itself, pinned literally (it is quoted in chaos
    reports, runtime event logs and forensics bundles)."""

    def test_mismatch_names_both_sides(self, kernel):
        gateway = make_replay(kernel, [SyscallRecord(Sys.CLOSE, fd=5)])
        with pytest.raises(DivergenceError) as raised:
            gateway.close(4)
        assert str(raised.value) == (
            "divergence (syscall mismatch): leader expected close(fd=5), "
            "follower issued close(fd=4)")
        assert raised.value.expected == SyscallRecord(Sys.CLOSE, fd=5)
        assert raised.value.actual == SyscallRecord(Sys.CLOSE, fd=4)

    def test_payload_mismatch_quotes_payloads(self, kernel):
        gateway = make_replay(kernel, [
            SyscallRecord(Sys.WRITE, fd=-3, data=b"SET k v\r\n", result=9)])
        with pytest.raises(DivergenceError) as raised:
            gateway.fs_append("/aof", b"SET k w\r\n")
        assert str(raised.value) == (
            "divergence (syscall mismatch): leader expected "
            "write(fd=-3, b'SET k v\\r\\n'), follower issued "
            "write(fd=-3, b'SET k w\\r\\n')")
        assert raised.value.actual == SyscallRecord(
            Sys.WRITE, fd=-3, data=b"SET k w\r\n", result=9)

    def test_extra_syscall_names_the_follower_record(self, kernel):
        gateway = make_replay(kernel, [])
        with pytest.raises(DivergenceError) as raised:
            gateway.read(4)
        assert str(raised.value) == (
            "divergence (follower issued extra syscall): leader expected "
            "<nothing>, follower issued read(fd=4, b'')")
        assert raised.value.expected is None
        assert raised.value.actual == SyscallRecord(Sys.READ, fd=4)

    def test_chunked_write_remainder_is_reported(self, kernel):
        # A short leader write followed by a diverging remainder: the
        # report carries what was left of the follower's payload.
        gateway = make_replay(kernel, [
            SyscallRecord(Sys.WRITE, fd=4, data=b"+O", result=2),
            SyscallRecord(Sys.WRITE, fd=4, data=b"X\r\n", result=3)])
        with pytest.raises(DivergenceError) as raised:
            gateway.write(4, b"+OK\r\n")
        assert raised.value.actual == SyscallRecord(
            Sys.WRITE, fd=4, data=b"K\r\n", result=3)
        assert gateway.trace.records == [
            SyscallRecord(Sys.WRITE, fd=4, data=b"+O", result=2)]
