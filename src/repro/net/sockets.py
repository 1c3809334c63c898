"""Byte-stream connections and listening sockets."""

from __future__ import annotations

from typing import Deque, List, Optional, Tuple
from collections import deque

from repro.errors import ConnectionClosed
from repro.net.epoll import Pollable


class Endpoint(Pollable):
    """One side of a :class:`Connection`.

    Holds the bytes this side has *received* but not yet read.  Reads are
    stream-oriented: a read may return fewer bytes than were written by the
    peer, and consecutive writes may coalesce, just like TCP.
    """

    def __init__(self, side: str, conn_id: int) -> None:
        super().__init__()
        self._side = side
        self._conn_id = conn_id
        self._inbox: Deque[bytes] = deque()
        self.open = True
        self.peer_open = True
        #: The other side; set by the :class:`Connection` that made both.
        self.peer: "Endpoint"

    @property
    def label(self) -> str:
        """``side#connection`` — only ever read on error paths."""
        return f"{self._side}#{self._conn_id}"

    def write(self, data: bytes) -> int:
        """Write to the peer's inbox; returns bytes written."""
        if not self.open:
            raise ConnectionClosed(f"write on closed endpoint {self.label}")
        peer = self.peer
        if not peer.open:
            raise ConnectionClosed(f"peer of {self.label} is closed")
        if data:
            inbox = peer._inbox
            if not inbox:  # the peer turns readable
                for epoll, fd in peer.watchers:
                    epoll.ready_fds.add(fd)
            inbox.append(data)
        return len(data)

    def close(self) -> None:
        """Close this side; the peer sees EOF after draining its inbox."""
        self.open = False
        peer = self.peer
        peer.peer_open = False
        if peer.watchers:
            peer._notify(True)

    def unread(self, data: bytes) -> None:
        """Push bytes back to the *front* of the inbox.

        Used when a crashed MVE leader had consumed a request: the bytes
        are re-delivered so the promoted follower can process it.
        """
        if data:
            if self.watchers and not self._inbox:
                self._notify(True)
            self._inbox.appendleft(data)

    def readable(self) -> bool:
        """True when a read would not block (data or peer-closed EOF)."""
        return bool(self._inbox) or not self.peer_open

    def pending_bytes(self) -> int:
        """Bytes buffered and not yet read."""
        return sum(len(chunk) for chunk in self._inbox)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume up to ``max_bytes`` buffered bytes.

        Returns ``b""`` at EOF (peer closed, nothing buffered).  Raises
        :class:`ConnectionClosed` if this side itself is closed.
        """
        if not self.open:
            raise ConnectionClosed(f"read on closed endpoint {self.label}")
        inbox = self._inbox
        if not inbox:
            return b""
        if max_bytes is None:
            data = b"".join(inbox)
            inbox.clear()
        else:
            pieces: List[bytes] = []
            remaining = max_bytes
            while inbox and remaining > 0:
                chunk = inbox[0]
                if len(chunk) <= remaining:
                    pieces.append(inbox.popleft())
                    remaining -= len(chunk)
                else:
                    pieces.append(chunk[:remaining])
                    inbox[0] = chunk[remaining:]
                    remaining = 0
            data = b"".join(pieces)
        if not inbox and self.peer_open:  # no longer readable
            for epoll, fd in self.watchers:
                epoll.ready_fds.discard(fd)
        return data


class Connection:
    """A bidirectional byte stream: two endpoints, each the other's peer.

    ``conn_id`` is allocated by the owning kernel, so endpoint labels do
    not depend on what else ran in the process.
    """

    def __init__(self, conn_id: int, client_label: str = "client",
                 server_label: str = "server") -> None:
        self.conn_id = conn_id
        self.client = Endpoint(client_label, conn_id)
        self.server = Endpoint(server_label, conn_id)
        self.client.peer, self.server.peer = self.server, self.client


class ListeningSocket(Pollable):
    """A bound, listening socket with a backlog of pending connections."""

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__()
        self.address = address
        self.backlog: Deque[Connection] = deque()
        self.open = True

    def enqueue(self, connection: Connection) -> None:
        """A client connected; park the connection until accepted."""
        if self.watchers and not self.backlog:
            self._notify(True)
        self.backlog.append(connection)

    def has_pending(self) -> bool:
        """True when an accept would not block."""
        return bool(self.backlog)

    readable = has_pending

    def accept(self) -> Connection:
        """Pop the oldest pending connection."""
        connection = self.backlog.popleft()
        if self.watchers and not self.backlog:
            self._notify(False)
        return connection
