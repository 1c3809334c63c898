"""Syscall gateways: where server code meets the MVE monitor.

Servers never call the virtual kernel directly; every syscall goes through
a :class:`SyscallGateway`, whose *role* determines what happens:

* ``DIRECT`` — execute against the kernel and trace (native execution
  and every MVE leader: the runtime, not the gateway, publishes the
  trace onto the ring buffer).
* ``REPLAY`` — never touch the kernel: serve results from the expected
  record stream and flag any mismatch as a divergence (MVE follower).

The gateway also accumulates the per-iteration syscall trace used for both
ring-buffer contents and virtual-time cost accounting.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.errors import BrokenPipe, ConnectionReset, FdExhausted
from repro.mve.divergence import check_drained, check_match
from repro.net.kernel import VirtualKernel
from repro.sites import OBS
from repro.syscalls.model import EMPTY_AUX, Sys, SyscallRecord

#: Kernel errors that record as error-bearing syscall records
#: (``aux={"error": name}``): when the leader's syscall fails this way
#: the follower must fail identically during replay, so both versions
#: drop the session at the same point and stay convergent.
_ERRNO_CLASSES = {"ECONNRESET": ConnectionReset, "EPIPE": BrokenPipe,
                  "EMFILE": FdExhausted}
_ERRNO_NAMES = {cls: name for name, cls in _ERRNO_CLASSES.items()}


class GatewayRole(enum.Enum):
    """How syscalls are executed."""

    DIRECT = "direct"
    REPLAY = "replay"


class IterationTrace:
    """Everything one event-loop iteration did, for accounting."""

    __slots__ = ("records", "requests_handled", "bytes_transferred")

    def __init__(self, records: Optional[List[SyscallRecord]] = None,
                 requests_handled: int = 0,
                 bytes_transferred: int = 0) -> None:
        self.records: List[SyscallRecord] = \
            [] if records is None else records
        self.requests_handled = requests_handled
        self.bytes_transferred = bytes_transferred


class SyscallGateway:
    """One process's syscall interface, in one of the two roles."""

    def __init__(self, kernel: VirtualKernel, domain: int,
                 role: GatewayRole = GatewayRole.DIRECT) -> None:
        self.kernel = kernel
        self.domain = domain
        self.role = role
        self.trace = IterationTrace()
        #: REPLAY role: the expected records this iteration has yet to
        #: consume (None outside one; a syscall takes the next with
        #: ``pending.popleft() if pending else None``, a C call).
        self._pending: Optional[Deque[SyscallRecord]] = None

    # -- iteration bookkeeping ------------------------------------------------

    def begin_iteration(self, expected: Sequence[SyscallRecord] = ()) -> None:
        """Reset the trace for a new event-loop iteration.

        ``expected`` is the REPLAY role's record stream for it (leader
        records after rewrite rules).
        """
        self.trace = IterationTrace()
        self._pending = deque(expected) if expected else None

    def finish_iteration(self) -> IterationTrace:
        """Close out the iteration; REPLAY role verifies full drain."""
        if self.role is GatewayRole.REPLAY and self._pending:
            check_drained([self._pending[0]])
        return self.trace

    # -- replay plumbing --------------------------------------------------------

    def _replay(self, name: Sys, fd: int = -1, data: bytes = b"",
                result=None) -> SyscallRecord:
        """Take the next expected record, which must match this syscall.

        The fields are tested in place; the follower's own record is
        only built for :func:`check_match` — which applies the
        ``wildcard`` escape, ignores the payload of non-data-bearing
        syscalls, and otherwise raises with both sides — when one of
        them differs.
        """
        pending = self._pending
        expected = pending.popleft() if pending else None
        if expected is None or expected.name is not name \
                or expected.fd != fd or expected.data != data:
            check_match(expected, SyscallRecord(name, fd, data, result))
        return expected

    def _emit(self, record: SyscallRecord) -> SyscallRecord:
        """Add ``record`` to the iteration's trace, account its bytes,
        show it to the tracer.  The three calls a request makes
        (``epoll_wait``/``read``/``write``, in either role) do the
        first two in place while no tracer is installed: they know the
        syscall kind, and build the record with ``tuple.__new__`` —
        field for field what ``SyscallRecord(...)`` returns, minus its
        Python frame."""
        trace = self.trace
        trace.records.append(record)
        if record.name in (Sys.READ, Sys.WRITE):
            trace.bytes_transferred += len(record.data)
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_syscall(self.role._value_, record)
        return record

    # -- sockets ------------------------------------------------------------------

    def epoll_wait(self, epfd: int) -> List[int]:
        """Ready fds; followers receive the leader's recorded ready set."""
        if self.role is GatewayRole.REPLAY:
            expected = self._replay(Sys.EPOLL_WAIT, epfd)
            if OBS.tracer is None:
                self.trace.records.append(expected)
            else:
                self._emit(expected)
            return list(expected.result)
        ready = self.kernel.epoll_wait(self.domain, epfd)
        record = tuple.__new__(SyscallRecord, (
            Sys.EPOLL_WAIT, epfd, b"", tuple(ready), EMPTY_AUX))
        if OBS.tracer is None:
            self.trace.records.append(record)
        else:
            self._emit(record)
        return ready

    def epoll_ctl(self, epfd: int, fd: int, *, add: bool) -> None:
        """Kernel-state tracking only; Varan does not log epoll_ctl."""
        if self.role is GatewayRole.REPLAY:
            return
        self.kernel.epoll_ctl(self.domain, epfd, fd, add=add)

    def connect(self, address) -> int:
        """Open an outbound connection (FTP active mode, replication).

        Recorded so followers learn the fd; only the leader actually
        dials the peer.
        """
        payload = f"{address[0]}:{address[1]}".encode()
        if self.role is GatewayRole.REPLAY:
            expected = self._emit(self._replay(Sys.CONNECT, data=payload))
            return int(expected.result)
        fd = self.kernel.connect(self.domain, tuple(address))
        self._emit(SyscallRecord(Sys.CONNECT, data=payload, result=fd))
        return fd

    def listen(self, address) -> int:
        """socket+bind+listen (one recorded syscall, e.g. FTP PASV ports).

        Followers learn the fd from the record; the port number must be
        deterministic server state so both versions' replies agree.
        """
        payload = f"{address[0]}:{address[1]}".encode()
        if self.role is GatewayRole.REPLAY:
            expected = self._emit(self._replay(Sys.LISTEN, data=payload))
            return int(expected.result)
        fd = self.kernel.listen(self.domain, tuple(address))
        self._emit(SyscallRecord(Sys.LISTEN, data=payload, result=fd))
        return fd

    def accept(self, listen_fd: int) -> int:
        """Accept a connection; followers learn the fd from the record."""
        if self.role is GatewayRole.REPLAY:
            expected = self._emit(self._replay(Sys.ACCEPT, listen_fd))
            error = expected.aux.get("error")
            if error:
                raise _ERRNO_CLASSES[error](
                    f"replayed {error} on accept fd {listen_fd}")
            return int(expected.result)
        try:
            fd = self.kernel.accept(self.domain, listen_fd)
        except FdExhausted:
            self._emit(SyscallRecord(Sys.ACCEPT, fd=listen_fd,
                                     aux={"error": "EMFILE"}))
            raise
        self._emit(SyscallRecord(Sys.ACCEPT, listen_fd, b"", fd))
        return fd

    def read(self, fd: int, max_bytes: Optional[int] = None) -> bytes:
        """Read from a stream; followers get the leader's bytes (possibly
        rewritten by rules)."""
        if self.role is GatewayRole.REPLAY:
            pending = self._pending
            expected = pending.popleft() if pending else None
            # Reads match on (name, fd) only: the *data* is an input the
            # leader received, served to the follower as-is.
            if expected is None or expected.name is not Sys.READ \
                    or expected.fd != fd:
                check_match(expected, SyscallRecord(Sys.READ, fd))
            if OBS.tracer is None:
                trace = self.trace
                trace.records.append(expected)
                trace.bytes_transferred += len(expected.data)
            else:
                self._emit(expected)
            error = expected.aux.get("error")
            if error:
                raise _ERRNO_CLASSES[error](
                    f"replayed {error} on read fd {fd}")
            return expected.data
        try:
            data = self.kernel.read(self.domain, fd, max_bytes)
        except ConnectionReset:
            self._emit(SyscallRecord(Sys.READ, fd=fd,
                                     aux={"error": "ECONNRESET"}))
            raise
        record = tuple.__new__(SyscallRecord, (
            Sys.READ, fd, data, len(data), EMPTY_AUX))
        if OBS.tracer is None:
            trace = self.trace
            trace.records.append(record)
            trace.bytes_transferred += len(data)
        else:
            self._emit(record)
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write to a stream; follower writes are compared, not executed.

        Short kernel writes are retried until the payload drains (each
        accepted prefix is its own record); EPIPE/ECONNRESET records as
        an error-bearing record before propagating, so followers fail at
        the same point during replay.
        """
        if self.role is GatewayRole.REPLAY:
            return self._replay_write(fd, data)
        total = len(data)
        remaining = data
        while True:
            try:
                written = self.kernel.write(self.domain, fd, remaining)
            except (BrokenPipe, ConnectionReset) as exc:
                self._emit(SyscallRecord(
                    Sys.WRITE, fd=fd, data=remaining, result=len(remaining),
                    aux={"error": _ERRNO_NAMES[type(exc)]}))
                raise
            sent = remaining[:written]
            record = tuple.__new__(SyscallRecord, (
                Sys.WRITE, fd, sent, written, EMPTY_AUX))
            if OBS.tracer is None:
                trace = self.trace
                trace.records.append(record)
                trace.bytes_transferred += len(sent)
            else:
                self._emit(record)
            remaining = remaining[written:]
            if not remaining:
                return total

    def _replay_write(self, fd: int, data: bytes) -> int:
        """Match a follower write against possibly-chunked leader records."""
        total = len(data)
        remaining = data
        pending = self._pending
        while True:
            expected = pending.popleft() if pending else None
            if expected is not None and expected.name is Sys.WRITE \
                    and expected.fd == fd:
                error = expected.aux.get("error")
                if error:
                    self._emit(expected)
                    raise _ERRNO_CLASSES[error](
                        f"replayed {error} on write fd {fd}")
                if expected.data and remaining != expected.data \
                        and remaining.startswith(expected.data):
                    # Possibly a truncated leader write (short-write
                    # fault).  Only treat it as a chunk when the stream
                    # continues with another write on the same fd —
                    # a genuine prefix *divergence* must still trip
                    # check_match below.
                    if pending and pending[0].name is Sys.WRITE \
                            and pending[0].fd == fd:
                        self._emit(expected)
                        remaining = remaining[len(expected.data):]
                        continue
                if remaining == expected.data:
                    record = tuple.__new__(SyscallRecord, (
                        Sys.WRITE, fd, remaining, len(remaining), EMPTY_AUX))
                    if OBS.tracer is None:
                        trace = self.trace
                        trace.records.append(record)
                        trace.bytes_transferred += len(remaining)
                    else:
                        self._emit(record)
                    return total
            actual = SyscallRecord(Sys.WRITE, fd, remaining, len(remaining))
            check_match(expected, actual)
            self._emit(actual)
            return total

    def close(self, fd: int) -> None:
        """Close an fd; recorded so both versions agree on session ends."""
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.CLOSE, fd)
        else:
            self.kernel.close(self.domain, fd)
        self._emit(SyscallRecord(Sys.CLOSE, fd))

    # -- filesystem ------------------------------------------------------------

    def fs_read(self, path: str) -> bytes:
        """Open+read a whole file (one OPEN record, one READ record)."""
        path_bytes = path.encode()
        if self.role is GatewayRole.REPLAY:
            self._emit(self._replay(Sys.OPEN, data=path_bytes))
            pending = self._pending
            expected = pending.popleft() if pending else None
            if expected is None or expected.name is not Sys.READ:
                check_match(expected, SyscallRecord(Sys.READ, -2))
            self._emit(expected)
            return expected.data
        data = self.kernel.fs.read_file(path)
        self._emit(SyscallRecord(Sys.OPEN, data=path_bytes, result=0))
        self._emit(SyscallRecord(Sys.READ, fd=-2, data=data, result=len(data)))
        return data

    def fs_write(self, path: str, data: bytes) -> None:
        """Create/overwrite a file (one OPEN record, one WRITE record)."""
        path_bytes = path.encode()
        if self.role is GatewayRole.REPLAY:
            self._emit(self._replay(Sys.OPEN, data=path_bytes))
            self._emit(self._replay(Sys.WRITE, -2, data, len(data)))
            return
        self.kernel.fs.write_file(path, data)
        self._emit(SyscallRecord(Sys.OPEN, data=path_bytes, result=0))
        self._emit(SyscallRecord(Sys.WRITE, fd=-2, data=data, result=len(data)))

    def fs_append(self, path: str, data: bytes) -> None:
        """Append to a file (one WRITE record on the append-log fd).

        Used for Redis's append-only file: a single recorded write, which
        is what the 2.0.0 -> 2.0.1 syscall-order rule reorders against
        the client-reply write.
        """
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.WRITE, -3, data, len(data))
        else:
            self.kernel.fs.append_file(path, data)
        self._emit(SyscallRecord(Sys.WRITE, -3, data, len(data)))

    def fs_unlink(self, path: str) -> None:
        """Delete a file."""
        payload = path.encode()
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.UNLINK, -1, payload, 0)
        else:
            self.kernel.fs.unlink(path)
        self._emit(SyscallRecord(Sys.UNLINK, -1, payload, 0))

    def fs_rename(self, src: str, dst: str) -> None:
        """Atomically rename a file."""
        payload = f"{src}\x00{dst}".encode()
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.RENAME, -1, payload, 0)
        else:
            self.kernel.fs.rename(src, dst)
        self._emit(SyscallRecord(Sys.RENAME, -1, payload, 0))

    def fs_stat(self, path: str) -> Optional[int]:
        """File size, or None when absent (shared namespace, untraced in
        followers via replay of the leader's answer)."""
        if self.role is GatewayRole.REPLAY:
            return self._replay_stat(path.encode()).result
        result = (self.kernel.fs.size(path)
                  if self.kernel.fs.exists(path) else None)
        self._emit(SyscallRecord(Sys.STAT, data=path.encode(), result=result))
        return result

    def _replay_stat(self, query: bytes) -> SyscallRecord:
        """The leader's answer to a STAT-family query.  Matched on the
        name only: the answer is an input, like read data."""
        pending = self._pending
        expected = pending.popleft() if pending else None
        if expected is None or expected.name is not Sys.STAT:
            check_match(expected, SyscallRecord(Sys.STAT, data=query))
        return self._emit(expected)

    def fs_mkdir(self, path: str) -> None:
        """Create a directory."""
        payload = path.encode()
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.MKDIR, -1, payload, 0)
        else:
            self.kernel.fs.mkdir(path)
        self._emit(SyscallRecord(Sys.MKDIR, -1, payload, 0))

    def fs_rmdir(self, path: str) -> None:
        """Remove an (empty) directory."""
        payload = path.encode()
        if self.role is GatewayRole.REPLAY:
            self._replay(Sys.RMDIR, -1, payload, 0)
        else:
            self.kernel.fs.rmdir(path)
        self._emit(SyscallRecord(Sys.RMDIR, -1, payload, 0))

    def fs_is_dir(self, path: str) -> bool:
        """Directory check, replayed to followers like stat."""
        query = ("d:" + path).encode()
        if self.role is GatewayRole.REPLAY:
            return bool(self._replay_stat(query).result)
        result = self.kernel.fs.is_dir(path)
        self._emit(SyscallRecord(Sys.STAT, data=query, result=result))
        return result

    def fs_listdir(self, path: str) -> List[str]:
        """Directory listing, replayed to followers like stat."""
        query = (path + "/").encode()
        if self.role is GatewayRole.REPLAY:
            return list(self._replay_stat(query).result)
        entries = self.kernel.fs.listdir(path)
        self._emit(SyscallRecord(Sys.STAT, data=query,
                                 result=tuple(entries)))
        return entries
