"""The virtual kernel: fd tables, sockets, epoll, filesystem.

Fd tables are keyed by *domain id*.  A native server owns a private
domain; an MVE group shares one domain across leader and followers (only
the current leader actually calls into the kernel — this mirrors Varan's
kernel-state tracking, and makes follower promotion a pure role swap).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import (BadFileDescriptor, BrokenPipe, ConnectionReset,
                          FdExhausted, KernelError)
from repro.net.epoll import EpollSet
from repro.net.filesystem import VirtualFilesystem
from repro.net.sockets import Connection, Endpoint, ListeningSocket
from repro.sites import OBS

#: Anything an fd can refer to.
FdObject = Union[Endpoint, ListeningSocket, EpollSet]


class _Domain:
    """One fd namespace."""

    def __init__(self, domain_id: int) -> None:
        self.domain_id = domain_id
        self.fds: Dict[int, FdObject] = {}
        self._next_fd = 3  # 0/1/2 reserved, as on a real system

    def alloc(self, obj: FdObject) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = obj
        return fd

    def lookup(self, fd: int) -> FdObject:
        try:
            return self.fds[fd]
        except KeyError:
            raise BadFileDescriptor(
                f"fd {fd} not open in domain {self.domain_id}"
            ) from None


class VirtualKernel:
    """All kernel state for one simulated machine."""

    def __init__(self) -> None:
        self.fs = VirtualFilesystem()
        self._domains: Dict[int, _Domain] = {}
        self._listeners: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._next_domain = 1
        self._next_connection = 1

    # -- domains -----------------------------------------------------------

    def create_domain(self) -> int:
        """Allocate a fresh fd namespace; returns its id."""
        domain_id = self._next_domain
        self._next_domain += 1
        self._domains[domain_id] = _Domain(domain_id)
        return domain_id

    def _domain(self, domain_id: int) -> _Domain:
        try:
            return self._domains[domain_id]
        except KeyError:
            raise KernelError(f"unknown domain {domain_id}") from None

    # -- sockets -----------------------------------------------------------

    def listen(self, domain_id: int, address: Tuple[str, int]) -> int:
        """socket+bind+listen in one step; returns the listening fd."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "listen", domain_id)
        if address in self._listeners:
            raise KernelError(f"address in use: {address}")
        domain = self._domain(domain_id)
        sock = ListeningSocket(address)
        fd = domain.alloc(sock)
        self._listeners[address] = (domain_id, fd)
        if tracer is not None:
            tracer.on_kernel("exit", "listen", domain_id, fd)
        return fd

    def connect(self, domain_id: int, address: Tuple[str, int]) -> int:
        """Connect to a listening address; returns the client-side fd.

        The connection is queued on the listener's backlog until the server
        accepts it.
        """
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "connect", domain_id)
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.kernel_call("kernel.connect", domain_id, -1)
            if fault is not None:
                raise FdExhausted(
                    f"connect in domain {domain_id}: out of file descriptors")
        if address not in self._listeners:
            raise KernelError(f"connection refused: {address}")
        listener_domain_id, listener_fd = self._listeners[address]
        listener = self._domains[listener_domain_id].fds[listener_fd]
        assert isinstance(listener, ListeningSocket)
        if not listener.open:
            raise KernelError(f"connection refused: {address}")
        connection = Connection(self._next_connection)
        self._next_connection += 1
        listener.enqueue(connection)
        domain = self._domain(domain_id)
        fd = domain.alloc(connection.client)
        if tracer is not None:
            tracer.on_kernel("exit", "connect", domain_id, fd)
        return fd

    def accept(self, domain_id: int, listen_fd: int) -> int:
        """Accept a pending connection; returns the server-side fd."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "accept", domain_id, listen_fd)
        domain = self._domain(domain_id)
        listener = domain.lookup(listen_fd)
        if not isinstance(listener, ListeningSocket):
            raise KernelError(f"fd {listen_fd} is not a listening socket")
        if not listener.has_pending():
            raise KernelError("accept would block: empty backlog")
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.kernel_call("kernel.accept", domain_id, listen_fd)
            if fault is not None:
                # The pending connection is consumed and torn down so
                # the listener does not stay "readable" forever; the
                # client observes EOF, the server observes EMFILE.
                listener.accept().server.close()
                raise FdExhausted(
                    f"accept in domain {domain_id}: out of file descriptors")
        fd = domain.alloc(listener.accept().server)
        if tracer is not None:
            tracer.on_kernel("exit", "accept", domain_id, fd)
        return fd

    def read(self, domain_id: int, fd: int, max_bytes: Optional[int] = None) -> bytes:
        """Read buffered bytes; ``b""`` means EOF."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "read", domain_id, fd)
        try:
            endpoint = self._domains[domain_id].fds[fd]
        except KeyError:  # picks the error: unknown domain, or bad fd
            endpoint = self._domain(domain_id).lookup(fd)
        if not isinstance(endpoint, Endpoint):
            raise KernelError(f"fd {fd} is not a stream")
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.kernel_call("kernel.read", domain_id, fd)
            if fault is not None:
                if fault.kind == "econnreset":
                    raise ConnectionReset(
                        f"read fd {fd}: connection reset by peer")
                # "short-read": deliver fewer bytes than buffered.  The
                # fd stays readable (level-triggered epoll), so callers
                # that loop make progress — at least one byte always
                # comes back.
                short = max(1, int(fault.param.get("bytes", 1)))
                if max_bytes is None or short < max_bytes:
                    max_bytes = short
        data = endpoint.read(max_bytes)
        if tracer is not None:
            tracer.on_kernel("exit", "read", domain_id, fd)
        return data

    def write(self, domain_id: int, fd: int, data: bytes) -> int:
        """Write bytes to the peer; returns the byte count."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "write", domain_id, fd)
        try:
            endpoint = self._domains[domain_id].fds[fd]
        except KeyError:
            endpoint = self._domain(domain_id).lookup(fd)
        if not isinstance(endpoint, Endpoint):
            raise KernelError(f"fd {fd} is not a stream")
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.kernel_call("kernel.write", domain_id, fd)
            if fault is not None:
                if fault.kind == "epipe":
                    raise BrokenPipe(f"write fd {fd}: broken pipe")
                # "short-write": accept only a prefix; the caller must
                # retry the remainder, as with a full socket buffer.
                short = max(1, int(fault.param.get("bytes", 1)))
                if short < len(data):
                    data = data[:short]
        written = endpoint.write(data)
        if tracer is not None:
            tracer.on_kernel("exit", "write", domain_id, fd)
        return written

    def close(self, domain_id: int, fd: int) -> None:
        """Close any fd; streams signal EOF to their peer."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "close", domain_id, fd)
        domain = self._domain(domain_id)
        obj = domain.lookup(fd)
        if isinstance(obj, Endpoint):
            obj.close()
        elif isinstance(obj, ListeningSocket):
            obj.open = False
            self._listeners.pop(obj.address, None)
        elif isinstance(obj, EpollSet):
            for watched in obj.interest():
                obj.remove(watched, domain.fds[watched])
        del domain.fds[fd]
        for epoll, _ in list(obj.watchers):
            epoll.remove(fd, obj)
        if tracer is not None:
            tracer.on_kernel("exit", "close", domain_id, fd)

    def is_open(self, domain_id: int, fd: int) -> bool:
        """True when ``fd`` is open in the domain."""
        return fd in self._domain(domain_id).fds

    # -- epoll ---------------------------------------------------------------

    def epoll_create(self, domain_id: int) -> int:
        """New epoll instance; returns its fd."""
        epoll = EpollSet(epfd=-1)
        epoll.epfd = self._domain(domain_id).alloc(epoll)
        return epoll.epfd

    def epoll_ctl(self, domain_id: int, epfd: int, fd: int, *, add: bool) -> None:
        """Register (``add=True``) or deregister interest in ``fd``."""
        domain = self._domain(domain_id)
        epoll = domain.lookup(epfd)
        if not isinstance(epoll, EpollSet):
            raise KernelError(f"fd {epfd} is not an epoll instance")
        obj = domain.lookup(fd)  # validates the target fd
        if add:
            epoll.add(fd, obj)
        else:
            epoll.remove(fd, obj)

    def epoll_wait(self, domain_id: int, epfd: int) -> List[int]:
        """Ready fds (level-triggered), in registration order."""
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_kernel("enter", "epoll_wait", domain_id, epfd)
        try:
            epoll = self._domains[domain_id].fds[epfd]
        except KeyError:
            epoll = self._domain(domain_id).lookup(epfd)
        if not isinstance(epoll, EpollSet):
            raise KernelError(f"fd {epfd} is not an epoll instance")
        ready = epoll.ready()
        if tracer is not None:
            tracer.on_kernel("exit", "epoll_wait", domain_id, epfd)
        return ready

    # -- inspection (used by tests and the MVE runtime) ----------------------

    def open_fds(self, domain_id: int) -> List[int]:
        """All fds open in a domain."""
        return sorted(self._domain(domain_id).fds)

    def peer_endpoint(self, domain_id: int, fd: int) -> Endpoint:
        """The remote endpoint of a connected stream fd."""
        endpoint = self._domain(domain_id).lookup(fd)
        if not isinstance(endpoint, Endpoint):
            raise KernelError(f"fd {fd} is not a stream")
        return endpoint.peer
