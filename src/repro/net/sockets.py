"""Byte-stream connections and listening sockets."""

from __future__ import annotations

from typing import Deque, List, Optional, Tuple
from collections import deque

from repro.errors import ConnectionClosed
from repro.net.epoll import EpollSet, Pollable


class _Half:
    """What one side of a connection receives: its inbox, the epoll
    sets watching it, and whether it is still open.  Each
    :class:`Endpoint` holds its own half and its peer's, never the peer
    :class:`Endpoint` itself, so a dropped connection is freed by
    reference counting, not left to the cyclic collector."""

    __slots__ = ("inbox", "watchers", "open")

    def __init__(self) -> None:
        self.inbox: Deque[bytes] = deque()
        self.watchers: List[Tuple[EpollSet, int]] = []
        self.open = True


class Endpoint(Pollable):
    """One side of a :class:`Connection`.

    Holds the bytes this side has *received* but not yet read.  Reads are
    stream-oriented: a read may return fewer bytes than were written by the
    peer, and consecutive writes may coalesce, just like TCP.
    """

    def __init__(self, side: str, conn_id: int, half: _Half,
                 peer: _Half) -> None:
        self._side = side
        self.conn_id = conn_id
        self._half = half
        #: The other side's half; set by the :class:`Connection` that
        #: made both.
        self._peer = peer
        self._inbox = half.inbox
        self.watchers = half.watchers

    @property
    def open(self) -> bool:
        """False once this side is closed."""
        return self._half.open

    @open.setter
    def open(self, value: bool) -> None:
        self._half.open = value

    @property
    def label(self) -> str:
        """``side#connection`` — only ever read on error paths."""
        return f"{self._side}#{self.conn_id}"

    def write(self, data: bytes) -> int:
        """Write to the peer's inbox; returns bytes written."""
        if not self._half.open:
            raise ConnectionClosed(f"write on closed endpoint {self.label}")
        peer = self._peer
        if not peer.open:
            raise ConnectionClosed(f"peer of {self.label} is closed")
        if data:
            inbox = peer.inbox
            if not inbox:  # the peer turns readable
                for epoll, fd in peer.watchers:
                    epoll.ready_fds.add(fd)
            inbox.append(data)
        return len(data)

    def close(self) -> bool:
        """Close this side; the peer sees EOF after draining its inbox.
        True when the peer was closed already (the connection is gone)."""
        self._half.open = False
        peer = self._peer
        for epoll, fd in peer.watchers:  # the peer turns readable
            epoll.ready_fds.add(fd)
        return not peer.open

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
        return bool(self._inbox) or not self._peer.open

    def pending_bytes(self) -> int:
        """Bytes buffered and not yet read."""
        return sum(len(chunk) for chunk in self._inbox)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume up to ``max_bytes`` buffered bytes.

        Returns ``b""`` at EOF (peer closed, nothing buffered).  Raises
        :class:`ConnectionClosed` if this side itself is closed.
        """
        if not self._half.open:
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
        if not inbox and self._peer.open:  # no longer readable
            for epoll, fd in self.watchers:
                epoll.ready_fds.discard(fd)
        return data


class Connection:
    """A bidirectional byte stream: two endpoints, each holding its own
    half and the other's.

    ``conn_id`` is allocated by the owning kernel, so endpoint labels do
    not depend on what else ran in the process.
    """

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        client, server = _Half(), _Half()
        self.client = Endpoint("client", conn_id, client, server)
        self.server = Endpoint("server", conn_id, server, client)

    def peer_of(self, endpoint: Endpoint) -> Endpoint:
        """The other side of ``endpoint``."""
        return self.server if endpoint is self.client else self.client


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
