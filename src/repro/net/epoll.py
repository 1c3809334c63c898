"""Epoll sets over virtual fds."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


class Pollable:
    """Anything an fd can name and an :class:`EpollSet` can watch.

    ``watchers`` holds the ``(EpollSet, fd)`` pairs registered on the
    object; on every transition of its readability a subclass adds the
    fd to (or discards it from) each watching set's ``ready_fds`` —
    through :meth:`_notify`, or in place on the per-request path
    (:meth:`~repro.net.sockets.Endpoint.write` and ``read``).
    """

    def __init__(self) -> None:
        self.watchers: List[Tuple["EpollSet", int]] = []

    def readable(self) -> bool:
        """True when a read (or accept) would not block."""
        return False

    def _notify(self, readable: bool) -> None:
        for epoll, fd in self.watchers:
            if readable:
                epoll.ready_fds.add(fd)
            else:
                epoll.ready_fds.discard(fd)


class EpollSet(Pollable):
    """Registered-interest set for one epoll instance.

    Readiness is level-triggered, matching how the simulated servers (and
    LibEvent) use epoll, but *tracked* rather than rescanned: watched
    objects report every transition of their readability into
    ``ready_fds``, so :meth:`ready` costs O(ready), not O(interest).
    Registration order is preserved because LibEvent's round-robin
    dispatch — the source of Memcached's spurious divergences in the
    paper — depends on a stable iteration order.  (An epoll fd
    registered in another set is never ready.)
    """

    def __init__(self, epfd: int) -> None:
        super().__init__()
        self.epfd = epfd
        #: fd -> registration serial (a re-added fd goes to the back).
        self._interest: Dict[int, int] = {}
        self._registrations = 0
        #: Registered fds that are readable now; kept by the watched
        #: objects themselves.
        self.ready_fds: Set[int] = set()

    def add(self, fd: int, obj: Pollable) -> None:
        """Register interest in ``fd``, which is ``obj`` (idempotent)."""
        if fd in self._interest:
            return
        self._registrations += 1
        self._interest[fd] = self._registrations
        obj.watchers.append((self, fd))
        if obj.readable():
            self.ready_fds.add(fd)

    def remove(self, fd: int, obj: Pollable) -> None:
        """Drop interest in ``fd``, which is ``obj`` (idempotent)."""
        if self._interest.pop(fd, None) is not None:
            self.ready_fds.discard(fd)
            obj.watchers.remove((self, fd))

    def ready(self) -> List[int]:
        """Registered fds that are readable now, in registration order."""
        if len(self.ready_fds) > 1:
            return sorted(self.ready_fds, key=self._interest.__getitem__)
        return list(self.ready_fds)

    def interest(self) -> List[int]:
        """All registered fds, in registration order."""
        return list(self._interest)

    def __contains__(self, fd: int) -> bool:
        return fd in self._interest

    def __len__(self) -> int:
        return len(self._interest)
