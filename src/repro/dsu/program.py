"""Updatable programs: heap + threads + update-point configuration.

This is the process-side view Kitsune needs: which threads exist, whether
each can reach an update point (and how long that takes), and whether the
program opted into treating ``epoll_wait`` as an update point — the
Kitsune extension the paper added for Memcached/LibEvent (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dsu.version import ServerVersion


@dataclass
class ThreadState:
    """One program thread, as the quiescence protocol sees it.

    Attributes:
        name: label for diagnostics.
        reach_update_point_ns: time for this thread to arrive at its next
            update point once an update is signalled.
        blocked_on_lock: the thread is waiting on a lock held by another
            thread — the classic DSU *timing error*: if the lock holder
            parks at an update point first, this thread never arrives.
        inside_event_loop: the thread is parked inside LibEvent's loop and
            only reaches an update point if ``epoll_wait`` counts as one.
    """

    name: str
    reach_update_point_ns: int = 100_000
    blocked_on_lock: bool = False
    inside_event_loop: bool = False


@dataclass(eq=False, repr=False)
class UpdatableProgram:
    """The DSU-relevant state of one running server process — every
    :class:`repro.servers.base.Server` is one.  No generated ``__eq__``
    (servers hash by identity) or ``repr`` (it would print the heap)."""

    version: ServerVersion
    heap: Dict[str, Any]
    threads: List[ThreadState] = field(
        default_factory=lambda: [ThreadState("main")])
    #: Kitsune extension (paper §5.3): treat epoll_wait as an update point
    #: so threads parked in LibEvent can quiesce without exiting the loop.
    epoll_update_points: bool = False
    #: Callback run on the process that *aborts* an update (the Mvedsua
    #: leader); Memcached uses it to reset LibEvent's dispatch memory.
    abort_callback: Optional[Any] = None

    def quiescence_time(self) -> Optional[int]:
        """Nanoseconds for all threads to park at update points.

        Returns None when quiescence is impossible — some thread can never
        reach an update point (a timing error: it is blocked on a lock, or
        parked in an event loop without ``epoll_update_points``).
        """
        worst = 0
        for thread in self.threads:
            if thread.blocked_on_lock:
                return None
            if thread.inside_event_loop and not self.epoll_update_points:
                return None
            worst = max(worst, thread.reach_update_point_ns)
        return worst

    def apply_version(self, version: ServerVersion,
                      heap: Dict[str, Any]) -> None:
        """Install dynamically-updated code and transformed state."""
        self.version = version
        self.heap = heap

    def run_abort_callback(self) -> None:
        """Invoke the abort hook, if the program registered one."""
        if self.abort_callback is not None:
            self.abort_callback(self)
