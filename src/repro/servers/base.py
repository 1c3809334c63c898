"""The event-driven server skeleton shared by all simulated servers.

A :class:`Server` owns the listening socket, an epoll instance, and one
:class:`Session` per client connection.  Its :meth:`Server.run_iteration`
performs exactly one event-loop pass through a syscall gateway — the unit
of MVE recording and replay.

Versions implement request handling (`ServerVersion.handle`); the
skeleton owns connection management and line-based request framing, which
is why a forked follower running *different* code still consumes the same
read stream: framing is byte-identical, semantics differ only inside
``handle``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.dsu.program import ThreadState, UpdatableProgram
from repro.dsu.transform import clone_heap
from repro.dsu.version import ServerVersion
from repro.errors import BrokenPipe, ConnectionReset, FdExhausted
from repro.mve.gateway import SyscallGateway
from repro.net.kernel import VirtualKernel


@dataclass
class Session:
    """Per-connection control state.

    ``buffer`` holds bytes read but not yet framed into a request;
    ``state`` is protocol-specific (FTP login status, current directory,
    ...).  Sessions are control state in the DSU sense: they survive
    dynamic updates and travel with the heap on fork.
    """

    fd: int
    buffer: bytes = b""
    state: Dict[str, Any] = field(default_factory=dict)


class Server(UpdatableProgram):
    """One simulated server process, the program Kitsune updates."""

    #: Profile name in :data:`repro.syscalls.costs.PROFILES`.
    profile_name = "kvstore"
    #: What version handlers get as ``io``: ``io_class(gateway, fd)``,
    #: or the gateway itself when None (servers whose handlers need a
    #: richer view name it here, see Vsftpd's data connections).
    io_class: Optional[type] = None

    def __init__(self, version: ServerVersion,
                 address: Tuple[str, int] = ("127.0.0.1", 7000)) -> None:
        super().__init__(version, version.initial_heap(),
                         threads=self._threads())
        self.address = address
        self.sessions: Dict[int, Session] = {}
        # Populated by attach().
        self.kernel: Optional[VirtualKernel] = None
        self.domain: int = -1
        self.listen_fd: int = -1
        self.epoll_fd: int = -1

    # -- configuration hooks -------------------------------------------------

    def _threads(self) -> List[ThreadState]:
        """Thread layout for the quiescence protocol; single by default."""
        return [ThreadState("main")]

    def on_connect(self, session: Session) -> List[bytes]:
        """Greeting payloads written when a client connects (FTP banner)."""
        return []

    # -- lifecycle -----------------------------------------------------------

    def attach(self, kernel: VirtualKernel) -> None:
        """Bind to a kernel: create the fd domain, listen, set up epoll.

        Start-up syscalls are not part of any MVE stream (the monitor
        attaches to an already-initialised process), so they go straight
        to the kernel.
        """
        self.kernel = kernel
        self.domain = kernel.create_domain()
        self.listen_fd = kernel.listen(self.domain, self.address)
        self.epoll_fd = kernel.epoll_create(self.domain)
        kernel.epoll_ctl(self.domain, self.epoll_fd, self.listen_fd, add=True)

    def fork(self, heap: Optional[Dict[str, Any]] = None) -> "Server":
        """Copy the process image: heap, sessions and thread states.

        ``heap``, when given, becomes the child's heap instead of a copy
        of this one: Mvedsua forks around the transformed heap, which is
        already a private copy.  Each session and thread state is
        copied; :meth:`_fork_own_state` copies what a subclass keeps of
        its own.  The version is code and is shared.  Kernel handles
        (domain, fds) are shared with the parent — under MVE the group
        shares one kernel view and only the leader executes syscalls;
        the gateway a process runs through is its runtime's.
        """
        # One memo for the heap and the session states, so a container
        # reachable from both stays one object in the child.
        memo: Dict[int, Any] = {}
        if heap is None:
            heap = clone_heap(self.heap, memo)
        else:
            memo[id(self.heap)] = heap
        child = copy.copy(self)
        child.heap = heap
        child.sessions = {
            fd: Session(fd, session.buffer, clone_heap(session.state, memo))
            for fd, session in self.sessions.items()}
        child.threads = [copy.copy(thread) for thread in self.threads]
        self._fork_own_state(child)
        return child

    def _fork_own_state(self, child: "Server") -> None:
        """Give ``child`` its own copy of the state this subclass keeps
        beside the heap, sessions and threads (none by default)."""

    # -- the event loop --------------------------------------------------------

    def run_iteration(self, gateway: SyscallGateway) -> None:
        """One event-loop pass: epoll_wait, then service each ready fd."""
        ready = gateway.epoll_wait(self.epoll_fd)
        for fd in ready:
            if fd == self.listen_fd:
                self._accept_one(gateway)
            else:
                self._service_fd(gateway, fd)

    def _accept_one(self, gateway: SyscallGateway) -> None:
        try:
            fd = gateway.accept(self.listen_fd)
        except FdExhausted:
            # Out of fds: the kernel already tore the pending connection
            # down (the client sees EOF); drop it and keep serving.
            return
        gateway.epoll_ctl(self.epoll_fd, fd, add=True)
        session = Session(fd)
        self.sessions[fd] = session
        for payload in self.on_connect(session):
            gateway.write(fd, payload)

    def _service_fd(self, gateway: SyscallGateway, fd: int) -> None:
        session = self.sessions.get(fd)
        if session is None:
            # A session the current version never saw (e.g. created by
            # the leader before this follower forked); adopt it.
            session = Session(fd)
            self.sessions[fd] = session
        try:
            data = gateway.read(fd)
        except ConnectionReset:
            gateway.close(fd)
            self._drop_session(fd)
            return
        if data == b"":
            gateway.close(fd)
            self._drop_session(fd)
            return
        session.buffer += data
        io = gateway if self.io_class is None else self.io_class(gateway, fd)
        trace = gateway.trace
        for request in self._frame_requests(session):
            trace.requests_handled += 1
            responses = self.version.handle(self.heap, request,
                                            session.state, io=io)
            try:
                self._emit_responses(gateway, session, request, responses)
            except (BrokenPipe, ConnectionReset):
                # The client vanished mid-reply; drop the session like a
                # real server would on EPIPE.
                gateway.close(fd)
                self._drop_session(fd)
                return

    def _emit_responses(self, gateway: SyscallGateway, session: Session,
                        request: bytes, responses: List[bytes]) -> None:
        """Write the handler's responses; servers that interleave other
        syscalls with responses (e.g. Redis AOF) override this."""
        for payload in responses:
            gateway.write(session.fd, payload)

    def _drop_session(self, fd: int) -> None:
        self.sessions.pop(fd, None)

    def _frame_requests(self, session: Session) -> List[bytes]:
        """Split buffered bytes into complete CRLF-terminated requests."""
        *requests, session.buffer = session.buffer.split(b"\r\n")
        return requests
