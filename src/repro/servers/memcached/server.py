"""The Memcached server process: worker threads, LibEvent, adaptations.

Three paper-critical behaviours live here:

1. **Threading/quiescence** — worker threads are parked inside LibEvent's
   loop.  Without the Kitsune extension that treats ``epoll_wait`` as an
   update point (``epoll_update_points``), they can never quiesce
   and every update attempt fails with a timing error.
2. **LibEvent dispatch memory** — ready fds are serviced in round-robin
   order with a persistent cursor.  A freshly-updated follower starts
   with a reset cursor; unless the leader also resets its own on update
   abort (the ``abort_callback``), the two processes service the same
   ready set in different orders and spuriously diverge.
3. **The §6.2 state-transform bug** — a transformer that "frees memory
   still in use by LibEvent" plants a time bomb that detonates only when
   enough clients are connected.

``mvedsua_adapted=True`` (the default) applies the paper's 114-line
adaptation: epoll update points + LibEvent reset on abort and on update.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.dsu.program import ThreadState
from repro.dsu.version import ServerVersion
from repro.errors import ServerCrash
from repro.libevent import LibEventLoop
from repro.mve.gateway import SyscallGateway
from repro.servers.base import Server, Session
from repro.servers.memcached.commands import STORAGE_VERBS
from repro.servers.memcached.versions import MemcachedVersion, memcached_version

#: How many concurrent connections it takes for the freed-LibEvent-buffer
#: bug to be re-allocated and crash the process (paper: the error "seemed
#: to manifest only when a sufficiently large number of clients were
#: connected").
MANY_CLIENTS_THRESHOLD = 4

#: Worker threads, as in the paper's testbed configuration.
WORKER_THREADS = 4


class MemcachedServer(Server):
    """Multi-threaded Memcached over the shared event-loop skeleton."""

    profile_name = "memcached"

    def __init__(self, version: Optional[MemcachedVersion] = None,
                 address: Tuple[str, int] = ("127.0.0.1", 11211), *,
                 mvedsua_adapted: bool = True,
                 libevent_reset_on_abort: Optional[bool] = None) -> None:
        if libevent_reset_on_abort is None:
            libevent_reset_on_abort = mvedsua_adapted
        self.libevent = LibEventLoop()
        super().__init__(version or memcached_version("1.2.2"), address)
        self.epoll_update_points = mvedsua_adapted
        if libevent_reset_on_abort:
            # Bound to the LibEvent loop, not to this server, so the
            # server holds no bound method of itself; ``fork`` rebinds
            # it to the child's loop.
            self.abort_callback = self.libevent.reset_on_abort

    def _fork_own_state(self, child: Server) -> None:
        """The child gets its own LibEvent loop, and its abort hook is
        rebound to that loop."""
        child.libevent = copy.copy(self.libevent)
        if child.abort_callback is not None:
            child.abort_callback = child.libevent.reset_on_abort

    def _threads(self) -> List[ThreadState]:
        threads = [ThreadState("main")]
        threads.extend(
            ThreadState(f"worker-{index}", inside_event_loop=True)
            for index in range(WORKER_THREADS))
        return threads

    def apply_version(self, version: ServerVersion,
                      heap: Dict[str, Any]) -> None:
        """Kitsune relaunches threads after an update, so every install
        rebuilds LibEvent state from scratch."""
        super().apply_version(version, heap)
        self.libevent.reset()

    # -- event loop ---------------------------------------------------------

    def run_iteration(self, gateway: SyscallGateway) -> None:
        """One pass, servicing ready fds in LibEvent's round-robin order."""
        self._check_freed_buffer()
        ready = gateway.epoll_wait(self.epoll_fd)
        accepts = [fd for fd in ready if fd == self.listen_fd]
        streams = [fd for fd in ready if fd != self.listen_fd]
        for fd in accepts:
            self._accept_one(gateway)
        for fd in self.libevent.dispatch_order(streams):
            self._service_fd(gateway, fd)

    def _check_freed_buffer(self) -> None:
        if (self.heap.get("libevent_buffer_freed")
                and len(self.sessions) >= MANY_CLIENTS_THRESHOLD):
            raise ServerCrash(
                "use-after-free: LibEvent reused a buffer freed by the "
                "state transformer")

    # -- framing -------------------------------------------------------------

    def _frame_requests(self, session: Session) -> List[bytes]:
        """Memcached framing: command line, optionally + a data block.

        Storage commands carry ``<bytes>`` of payload plus CRLF after the
        header line; the framed request is ``header\\r\\ndata``.
        """
        requests: List[bytes] = []
        while True:
            pending = session.state.get("pending_storage")
            if pending is not None:
                needed = pending["bytes"] + 2  # data + trailing CRLF
                if len(session.buffer) < needed:
                    break
                block = session.buffer[:needed]
                session.buffer = session.buffer[needed:]
                requests.append(pending["header"] + b"\r\n" + block[:-2])
                session.state["pending_storage"] = None
                continue
            if b"\r\n" not in session.buffer:
                break
            line, session.buffer = session.buffer.split(b"\r\n", 1)
            verb, _, rest = line.partition(b" ")
            if verb.decode("latin-1") in STORAGE_VERBS:
                args = rest.split(b" ")
                try:
                    size = int(args[3])
                except (IndexError, ValueError):
                    requests.append(line)  # malformed; let dispatch reject
                    continue
                session.state["pending_storage"] = {
                    "header": line, "bytes": size}
                continue
            requests.append(line)
        return requests
