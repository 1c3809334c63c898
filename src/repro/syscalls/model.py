"""Syscall records — the unit of MVE comparison.

A server iteration emits a sequence of :class:`SyscallRecord`s.  The MVE
leader executes them against the virtual kernel and appends them to the
ring buffer; followers re-execute the same iteration on their own heap and
their emitted records are matched (after rewrite rules) against the
leader's.

File descriptors in records are *logical*: Varan virtualises fd numbers so
that a leader and a follower forked at different times still agree.  The
virtual kernel hands out per-process fds, and the gateway translates them
to stable logical ids before recording.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Tuple


class Sys(enum.Enum):
    """The syscall vocabulary used by the simulated servers."""

    SOCKET = "socket"
    BIND = "bind"
    LISTEN = "listen"
    ACCEPT = "accept"
    CONNECT = "connect"
    READ = "read"
    WRITE = "write"
    CLOSE = "close"
    EPOLL_WAIT = "epoll_wait"
    OPEN = "open"
    UNLINK = "unlink"
    RENAME = "rename"
    STAT = "stat"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    FORK = "fork"
    GETTIMEOFDAY = "gettimeofday"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


#: Syscalls whose *data* payload is compared byte-for-byte by MVE.
DATA_BEARING = frozenset({Sys.READ, Sys.WRITE, Sys.OPEN, Sys.UNLINK,
                          Sys.RENAME, Sys.STAT, Sys.MKDIR, Sys.RMDIR,
                          Sys.CONNECT})

#: Syscalls that never reach the ring buffer (pure kernel-state tracking).
UNTRACKED = frozenset({Sys.GETTIMEOFDAY})


#: Shared immutable empty ``aux``: most records carry none, so the
#: per-record dict allocation is pure overhead on the hot path.
EMPTY_AUX: Mapping[str, Any] = MappingProxyType({})


class SyscallRecord(NamedTuple):
    """One intercepted system call.

    Tuple-backed: records are the most-allocated object in the
    simulator, and an immutable tuple is the cheapest value Python can
    build (hot paths construct positionally).  Equality is field-wise
    over all five fields; assignment raises ``AttributeError``.

    Attributes:
        name: which syscall.
        fd: logical file descriptor it operated on (or -1).
        data: byte payload (read data, write data, path for file ops).
        result: the kernel's return value, replayed to followers.
        aux: extra comparison-relevant detail (e.g. flags), kept small.
    """

    name: Sys
    fd: int = -1
    data: bytes = b""
    result: Any = None
    aux: Mapping[str, Any] = EMPTY_AUX

    def key(self) -> Tuple[Sys, int, bytes]:
        """The comparison key used for divergence detection."""
        name, fd, data, _, _ = self
        return (name, fd, data if name in DATA_BEARING else b"")

    def matches(self, other: "SyscallRecord") -> bool:
        """True when MVE would consider the two records equivalent."""
        return self.key() == other.key()

    def with_data(self, data: bytes) -> "SyscallRecord":
        """Copy of this record carrying different payload bytes."""
        return self._replace(data=data)

    def with_fd(self, fd: int) -> "SyscallRecord":
        """Copy of this record retargeted at a different logical fd."""
        return self._replace(fd=fd)

    def describe(self) -> str:
        """Compact human-readable form used in divergence reports."""
        if self.name in DATA_BEARING:
            shown = self.data[:48]
            suffix = "..." if len(self.data) > 48 else ""
            return f"{self.name}(fd={self.fd}, {shown!r}{suffix})"
        return f"{self.name}(fd={self.fd})"


def trace_signature(records: Iterable[SyscallRecord]) -> Tuple[Tuple[Sys, int, bytes], ...]:
    """Hashable signature of a syscall trace (for tests and dedup)."""
    return tuple(record.key() for record in records)


def read_record(fd: int, data: bytes, *, result: Optional[int] = None) -> SyscallRecord:
    """Convenience constructor for a READ record."""
    return SyscallRecord(Sys.READ, fd=fd, data=data,
                         result=len(data) if result is None else result)


def write_record(fd: int, data: bytes, *, result: Optional[int] = None) -> SyscallRecord:
    """Convenience constructor for a WRITE record."""
    return SyscallRecord(Sys.WRITE, fd=fd, data=data,
                         result=len(data) if result is None else result)
