"""Round-robin event dispatch with memory, as in LibEvent.

Only the divergence-relevant behaviour is modelled: given the ready set
from ``epoll_wait``, :meth:`LibEventLoop.dispatch_order` rotates it by a
persistent cursor, and the cursor advances by how many events were
dispatched.  Two processes with different cursors will service the same
ready set in different orders — which, under MVE, means they issue their
read syscalls in different orders and diverge.
"""

from __future__ import annotations

from typing import List, Sequence


class LibEventLoop:
    """The dispatch-order state of one process's LibEvent instance."""

    def __init__(self) -> None:
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Current rotation offset (exposed for tests and resets)."""
        return self._cursor

    def dispatch_order(self, ready: Sequence[int]) -> List[int]:
        """Order in which callbacks fire for this ready set.

        Rotates ``ready`` by the cursor, then advances the cursor — the
        "remembering where it was after each invocation" behaviour the
        paper describes.
        """
        if not ready:
            return []
        offset = self._cursor % len(ready)
        ordered = list(ready[offset:]) + list(ready[:offset])
        self._cursor += len(ready)
        return ordered

    def reset(self) -> None:
        """Forget the dispatch position.

        Mvedsua's Memcached port calls this from the update-abort
        callback so the leader's order matches the freshly-started
        follower's.
        """
        self._cursor = 0

    def reset_on_abort(self, program) -> None:
        """:meth:`reset` as ``program``'s update-abort callback — the
        paper's Memcached adaptation (§5.3)."""
        self.reset()
