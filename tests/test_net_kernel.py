"""Unit tests for the virtual kernel: sockets, epoll, fd domains."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BadFileDescriptor, ConnectionClosed, KernelError
from repro.net import Endpoint, ListeningSocket, VirtualKernel

ADDR = ("127.0.0.1", 6379)


@pytest.fixture
def kernel():
    return VirtualKernel()


@pytest.fixture
def pair(kernel):
    """A connected (server_domain, server_fd, client_domain, client_fd)."""
    server_domain = kernel.create_domain()
    client_domain = kernel.create_domain()
    listen_fd = kernel.listen(server_domain, ADDR)
    client_fd = kernel.connect(client_domain, ADDR)
    server_fd = kernel.accept(server_domain, listen_fd)
    return server_domain, server_fd, client_domain, client_fd


def test_listen_connect_accept_round_trip(kernel, pair):
    server_domain, server_fd, client_domain, client_fd = pair
    kernel.write(client_domain, client_fd, b"PING\r\n")
    assert kernel.read(server_domain, server_fd) == b"PING\r\n"
    kernel.write(server_domain, server_fd, b"+PONG\r\n")
    assert kernel.read(client_domain, client_fd) == b"+PONG\r\n"


def test_connect_to_unbound_address_refused(kernel):
    domain = kernel.create_domain()
    with pytest.raises(KernelError, match="refused"):
        kernel.connect(domain, ("10.0.0.1", 80))


def test_double_bind_rejected(kernel):
    d = kernel.create_domain()
    kernel.listen(d, ADDR)
    with pytest.raises(KernelError, match="in use"):
        kernel.listen(kernel.create_domain(), ADDR)


def test_accept_without_pending_raises(kernel):
    d = kernel.create_domain()
    listen_fd = kernel.listen(d, ADDR)
    with pytest.raises(KernelError, match="would block"):
        kernel.accept(d, listen_fd)


def test_read_empty_stream_returns_nothing(kernel, pair):
    server_domain, server_fd, _, _ = pair
    assert kernel.read(server_domain, server_fd) == b""


def test_partial_reads_preserve_stream_order(kernel, pair):
    server_domain, server_fd, client_domain, client_fd = pair
    kernel.write(client_domain, client_fd, b"abcdef")
    kernel.write(client_domain, client_fd, b"ghi")
    assert kernel.read(server_domain, server_fd, max_bytes=4) == b"abcd"
    assert kernel.read(server_domain, server_fd, max_bytes=4) == b"efgh"
    assert kernel.read(server_domain, server_fd) == b"i"


def test_close_signals_eof_to_peer(kernel, pair):
    server_domain, server_fd, client_domain, client_fd = pair
    kernel.write(client_domain, client_fd, b"bye")
    kernel.close(client_domain, client_fd)
    # Buffered data still readable, then EOF.
    assert kernel.read(server_domain, server_fd) == b"bye"
    assert kernel.read(server_domain, server_fd) == b""


def test_write_to_closed_peer_raises(kernel, pair):
    server_domain, server_fd, client_domain, client_fd = pair
    kernel.close(client_domain, client_fd)
    with pytest.raises(ConnectionClosed):
        kernel.write(server_domain, server_fd, b"data")


def test_operations_on_unknown_fd_raise(kernel):
    domain = kernel.create_domain()
    with pytest.raises(BadFileDescriptor):
        kernel.read(domain, 99)


def test_fd_domains_are_isolated(kernel, pair):
    server_domain, server_fd, _, _ = pair
    other = kernel.create_domain()
    with pytest.raises(BadFileDescriptor):
        kernel.read(other, server_fd)


def test_close_frees_fd(kernel, pair):
    server_domain, server_fd, _, _ = pair
    kernel.close(server_domain, server_fd)
    assert not kernel.is_open(server_domain, server_fd)
    with pytest.raises(BadFileDescriptor):
        kernel.read(server_domain, server_fd)


def test_closed_listener_refuses_connections(kernel):
    server_domain = kernel.create_domain()
    listen_fd = kernel.listen(server_domain, ADDR)
    kernel.close(server_domain, listen_fd)
    with pytest.raises(KernelError, match="refused"):
        kernel.connect(kernel.create_domain(), ADDR)


class TestEpoll:
    def test_listener_ready_when_backlog_nonempty(self, kernel):
        server_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ADDR)
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, listen_fd, add=True)
        assert kernel.epoll_wait(server_domain, epfd) == []
        kernel.connect(kernel.create_domain(), ADDR)
        assert kernel.epoll_wait(server_domain, epfd) == [listen_fd]

    def test_stream_ready_when_data_buffered(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        assert kernel.epoll_wait(server_domain, epfd) == []
        kernel.write(client_domain, client_fd, b"x")
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]
        # Level-triggered: still ready until drained.
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]
        kernel.read(server_domain, server_fd)
        assert kernel.epoll_wait(server_domain, epfd) == []

    def test_peer_close_makes_stream_ready(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.close(client_domain, client_fd)
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]

    def test_ready_order_is_registration_order(self, kernel):
        server_domain = kernel.create_domain()
        client_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ADDR)
        epfd = kernel.epoll_create(server_domain)
        fds = []
        for _ in range(3):
            kernel.connect(client_domain, ADDR)
            fd = kernel.accept(server_domain, listen_fd)
            kernel.epoll_ctl(server_domain, epfd, fd, add=True)
            fds.append(fd)
        client_fds = [fd for fd in kernel.open_fds(client_domain)]
        for cfd in client_fds:
            kernel.write(client_domain, cfd, b"hello")
        assert kernel.epoll_wait(server_domain, epfd) == fds

    def test_epoll_ctl_remove(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.write(client_domain, client_fd, b"x")
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=False)
        assert kernel.epoll_wait(server_domain, epfd) == []

    def test_closing_fd_removes_it_from_epoll(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.write(client_domain, client_fd, b"x")
        kernel.close(server_domain, server_fd)
        assert kernel.epoll_wait(server_domain, epfd) == []

    def test_epoll_on_non_epoll_fd_raises(self, kernel, pair):
        server_domain, server_fd, _, _ = pair
        with pytest.raises(KernelError):
            kernel.epoll_wait(server_domain, server_fd)


# What read/write/epoll_wait raise when the fd is not what they need:
# the checks run inline on the per-request path, and these are their
# exact classes and messages.  ``{fd}`` is the row's fd; the server end
# of the pair is connection 1.
_TYPED_ERRORS = [
    ("read", "listener", KernelError, "fd {fd} is not a stream"),
    ("write", "listener", KernelError, "fd {fd} is not a stream"),
    ("read", "epoll", KernelError, "fd {fd} is not a stream"),
    ("write", "epoll", KernelError, "fd {fd} is not a stream"),
    ("epoll_wait", "stream", KernelError, "fd {fd} is not an epoll instance"),
    ("epoll_wait", "listener", KernelError,
     "fd {fd} is not an epoll instance"),
    ("read", "unknown-fd", BadFileDescriptor,
     "fd {fd} not open in domain {domain}"),
    ("write", "unknown-fd", BadFileDescriptor,
     "fd {fd} not open in domain {domain}"),
    ("epoll_wait", "unknown-fd", BadFileDescriptor,
     "fd {fd} not open in domain {domain}"),
    ("read", "unknown-domain", KernelError, "unknown domain {domain}"),
    ("write", "unknown-domain", KernelError, "unknown domain {domain}"),
    ("epoll_wait", "unknown-domain", KernelError, "unknown domain {domain}"),
    ("read", "closed-endpoint", ConnectionClosed,
     "read on closed endpoint server#1"),
    ("write", "closed-endpoint", ConnectionClosed,
     "write on closed endpoint server#1"),
    ("write", "closed-peer", ConnectionClosed, "peer of server#1 is closed"),
]


@pytest.mark.parametrize(
    "call,target,error,message", _TYPED_ERRORS,
    ids=[f"{call}-{target}" for call, target, _, _ in _TYPED_ERRORS])
def test_inlined_checks_keep_their_typed_errors(kernel, call, target, error,
                                                message):
    domain = kernel.create_domain()
    client_domain = kernel.create_domain()
    listen_fd = kernel.listen(domain, ADDR)
    client_fd = kernel.connect(client_domain, ADDR)
    stream_fd = kernel.accept(domain, listen_fd)
    fd = {"listener": listen_fd, "epoll": kernel.epoll_create(domain),
          "unknown-fd": 99}.get(target, stream_fd)
    if target == "unknown-domain":
        domain = 77
    elif target == "closed-endpoint":
        # Closed, yet still in the fd table: only reachable by hand.
        kernel._domain(domain).lookup(stream_fd).open = False
    elif target == "closed-peer":
        kernel.close(client_domain, client_fd)
    arguments = (domain, fd, b"x") if call == "write" else (domain, fd)
    with pytest.raises(KernelError) as raised:
        getattr(kernel, call)(*arguments)
    assert type(raised.value) is error
    assert str(raised.value) == message.format(fd=fd, domain=domain)


def test_peer_endpoint_inspection(kernel, pair):
    server_domain, server_fd, client_domain, client_fd = pair
    kernel.write(server_domain, server_fd, b"hello")
    peer = kernel.peer_endpoint(server_domain, server_fd)
    assert peer.pending_bytes() == 5


class TestEndpointUnread:
    """unread() re-delivers consumed bytes ahead of anything buffered —
    the primitive behind crash-request re-delivery."""

    def test_unread_goes_to_the_front(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        kernel.write(client_domain, client_fd, b"SECOND")
        endpoint = kernel._domain(server_domain).lookup(server_fd)
        endpoint.unread(b"FIRST ")
        assert kernel.read(server_domain, server_fd) == b"FIRST SECOND"

    def test_unread_empty_is_noop(self, kernel, pair):
        server_domain, server_fd, _, _ = pair
        endpoint = kernel._domain(server_domain).lookup(server_fd)
        endpoint.unread(b"")
        assert not endpoint.readable()


# ---------------------------------------------------------------------------
# Readiness oracle: tracked epoll readiness ≡ rescanning the interest list
# ---------------------------------------------------------------------------

class _World:
    """One server domain (a listener, two epoll sets), one client domain
    (one epoll set), and a model of every epoll set's interest list kept
    here — registration order included — so the oracle shares nothing
    with the kernel's own bookkeeping."""

    def __init__(self):
        self.kernel = kernel = VirtualKernel()
        self.server = kernel.create_domain()
        self.client = kernel.create_domain()
        self.listen_fd = kernel.listen(self.server, ADDR)
        self.listening = True
        #: (domain, epfd) -> watched fds, in registration order.
        self.interest = {
            (self.server, kernel.epoll_create(self.server)): [],
            (self.server, kernel.epoll_create(self.server)): [],
            (self.client, kernel.epoll_create(self.client)): [],
        }
        self.streams = {self.server: [], self.client: []}
        # Start from a serving state — two accepted connections, the
        # listener and the first stream watched — so short operation
        # sequences already reach the interesting transitions.
        for _ in range(2):
            self.connect(0, 0)
            self.accept(0, 0)
        self.ctl_add(5, 0)
        self.ctl_add(1, 0)

    # -- the oracle: the O(interest) rescan the kernel used to run ----------

    def rescan(self, domain, epfd):
        fds = self.kernel._domain(domain).fds
        ready = []
        for fd in self.interest[(domain, epfd)]:
            obj = fds.get(fd)
            if isinstance(obj, Endpoint) and obj.readable():
                ready.append(fd)
            elif isinstance(obj, ListeningSocket) and obj.has_pending():
                ready.append(fd)
        return ready

    def check(self):
        for domain, epfd in self.interest:
            assert self.kernel.epoll_wait(domain, epfd) \
                == self.rescan(domain, epfd)

    # -- operations; ``a``/``b`` pick among whatever is live ------------------

    def _pick(self, items, index):
        return items[index % len(items)] if items else None

    def _stream(self, a):
        side = self.server if a % 2 else self.client
        return side, self._pick(self.streams[side], a // 2)

    def _epoll(self, domain, index):
        return self._pick([epfd for d, epfd in self.interest if d == domain],
                          index)

    def connect(self, a, b):
        if self.listening:
            self.streams[self.client].append(
                self.kernel.connect(self.client, ADDR))

    def accept(self, a, b):
        listener = self.kernel._domain(self.server).fds.get(self.listen_fd)
        if listener is not None and listener.has_pending():
            self.streams[self.server].append(
                self.kernel.accept(self.server, self.listen_fd))

    def write(self, a, b):
        domain, fd = self._stream(a)
        if fd is not None:
            try:
                self.kernel.write(domain, fd, b"x" * b)  # b == 0: no-op
            except ConnectionClosed:
                pass

    def read(self, a, b):
        domain, fd = self._stream(a)
        if fd is not None:
            self.kernel.read(domain, fd, b or None)  # partial, or drain

    def unread(self, a, b):
        domain, fd = self._stream(a)
        if fd is not None:
            self.kernel._domain(domain).lookup(fd).unread(b"u" * b)

    def close(self, a, b):
        domain, fd = self._stream(a)
        if fd is not None:
            self._close(domain, fd)
            self.streams[domain].remove(fd)

    def close_listener(self, a, b):
        if self.listening and a == 0:
            self._close(self.server, self.listen_fd)
            self.listening = False

    def _close(self, domain, fd):
        self.kernel.close(domain, fd)
        for (d, _), watched in self.interest.items():
            if d == domain and fd in watched:
                watched.remove(fd)

    def _target(self, a):
        domain, fd = self._stream(a)
        if self.listening and a == 5:
            domain, fd = self.server, self.listen_fd
        return domain, fd

    def ctl_add(self, a, b):
        domain, fd = self._target(a)
        epfd = self._epoll(domain, b)
        if fd is not None:
            self.kernel.epoll_ctl(domain, epfd, fd, add=True)
            if fd not in self.interest[(domain, epfd)]:
                self.interest[(domain, epfd)].append(fd)

    def ctl_remove(self, a, b):
        domain, fd = self._target(a)
        epfd = self._epoll(domain, b)
        if fd is not None:
            self.kernel.epoll_ctl(domain, epfd, fd, add=False)
            if fd in self.interest[(domain, epfd)]:
                self.interest[(domain, epfd)].remove(fd)


_OPERATIONS = ["connect", "accept", "write", "read", "unread", "close",
               "close_listener", "ctl_add", "ctl_remove"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_OPERATIONS),
                          st.integers(0, 5), st.integers(0, 3)),
                max_size=40))
def test_tracked_readiness_equals_rescan(operations):
    world = _World()
    world.check()
    for name, a, b in operations:
        getattr(world, name)(a, b)
        world.check()


class TestReadinessTransitions:
    """The notifying transitions, one by one (the property test above
    finds them all; these name them)."""

    def test_add_of_an_already_readable_fd_is_ready_at_once(self, kernel,
                                                            pair):
        server_domain, server_fd, client_domain, client_fd = pair
        kernel.write(client_domain, client_fd, b"x")
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]

    def test_two_epoll_sets_watch_one_fd(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        first = kernel.epoll_create(server_domain)
        second = kernel.epoll_create(server_domain)
        for epfd in (first, second):
            kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.write(client_domain, client_fd, b"x")
        assert kernel.epoll_wait(server_domain, first) == [server_fd]
        assert kernel.epoll_wait(server_domain, second) == [server_fd]
        kernel.epoll_ctl(server_domain, first, server_fd, add=False)
        kernel.read(server_domain, server_fd)
        kernel.write(client_domain, client_fd, b"y")
        assert kernel.epoll_wait(server_domain, first) == []
        assert kernel.epoll_wait(server_domain, second) == [server_fd]

    def test_re_add_moves_the_fd_to_the_back(self, kernel):
        server_domain = kernel.create_domain()
        client_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ADDR)
        epfd = kernel.epoll_create(server_domain)
        fds = []
        for _ in range(3):
            client_fd = kernel.connect(client_domain, ADDR)
            kernel.write(client_domain, client_fd, b"x")
            fds.append(kernel.accept(server_domain, listen_fd))
            kernel.epoll_ctl(server_domain, epfd, fds[-1], add=True)
        kernel.epoll_ctl(server_domain, epfd, fds[0], add=False)
        kernel.epoll_ctl(server_domain, epfd, fds[0], add=True)
        assert kernel.epoll_wait(server_domain, epfd) \
            == [fds[1], fds[2], fds[0]]
        # Adding again is idempotent: the position is kept.
        kernel.epoll_ctl(server_domain, epfd, fds[1], add=True)
        assert kernel.epoll_wait(server_domain, epfd) \
            == [fds[1], fds[2], fds[0]]

    def test_partial_read_keeps_ready_until_drained(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.write(client_domain, client_fd, b"abcd")
        kernel.read(server_domain, server_fd, max_bytes=3)
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]
        kernel.read(server_domain, server_fd, max_bytes=3)
        assert kernel.epoll_wait(server_domain, epfd) == []

    def test_eof_stays_ready_after_the_inbox_drains(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel.write(client_domain, client_fd, b"bye")
        kernel.close(client_domain, client_fd)
        assert kernel.read(server_domain, server_fd) == b"bye"
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]

    def test_unread_makes_a_drained_stream_ready_again(self, kernel, pair):
        server_domain, server_fd, _, _ = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        kernel._domain(server_domain).lookup(server_fd).unread(b"again")
        assert kernel.epoll_wait(server_domain, epfd) == [server_fd]

    def test_accept_that_empties_the_backlog_clears_the_listener(
            self, kernel):
        server_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ADDR)
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, listen_fd, add=True)
        client_domain = kernel.create_domain()
        kernel.connect(client_domain, ADDR)
        kernel.connect(client_domain, ADDR)
        kernel.accept(server_domain, listen_fd)
        assert kernel.epoll_wait(server_domain, epfd) == [listen_fd]
        kernel.accept(server_domain, listen_fd)
        assert kernel.epoll_wait(server_domain, epfd) == []

    def test_closing_an_epoll_fd_unwatches_its_fds(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        epfd = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, epfd, server_fd, add=True)
        endpoint = kernel._domain(server_domain).lookup(server_fd)
        assert len(endpoint.watchers) == 1
        kernel.close(server_domain, epfd)
        assert endpoint.watchers == []
        kernel.write(client_domain, client_fd, b"x")  # nobody to notify
        assert kernel.read(server_domain, server_fd) == b"x"

    def test_an_epoll_fd_inside_another_set_is_never_ready(self, kernel,
                                                           pair):
        server_domain, server_fd, client_domain, client_fd = pair
        inner = kernel.epoll_create(server_domain)
        outer = kernel.epoll_create(server_domain)
        kernel.epoll_ctl(server_domain, inner, server_fd, add=True)
        kernel.epoll_ctl(server_domain, outer, inner, add=True)
        kernel.write(client_domain, client_fd, b"x")
        assert kernel.epoll_wait(server_domain, inner) == [server_fd]
        assert kernel.epoll_wait(server_domain, outer) == []
        kernel.close(server_domain, inner)
        assert kernel.epoll_wait(server_domain, outer) == []


class TestConnectionIds:
    """Connection ids — quoted in ``ConnectionClosed`` messages — belong
    to the kernel, not to the process."""

    def _closed_read_message(self):
        kernel = VirtualKernel()
        server_domain = kernel.create_domain()
        client_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ADDR)
        kernel.connect(client_domain, ADDR)
        client_fd = kernel.connect(client_domain, ADDR)
        kernel.accept(server_domain, listen_fd)
        endpoint = kernel._domain(client_domain).lookup(client_fd)
        kernel.close(client_domain, client_fd)
        with pytest.raises(ConnectionClosed) as raised:
            endpoint.read()
        return str(raised.value)

    def test_labels_do_not_depend_on_earlier_kernels(self):
        first = self._closed_read_message()
        assert first == "read on closed endpoint client#2"
        assert self._closed_read_message() == first

    def test_write_errors_name_the_endpoint(self, kernel, pair):
        server_domain, server_fd, client_domain, client_fd = pair
        kernel.close(client_domain, client_fd)
        with pytest.raises(ConnectionClosed, match=r"peer of server#1 is"):
            kernel.write(server_domain, server_fd, b"data")
