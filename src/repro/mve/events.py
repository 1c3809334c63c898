"""Control events carried on the ring buffer alongside syscalls.

The paper's promotion/demotion (t4 in Figure 2) works by the leader
"registering a special demotion/promotion event on the ring buffer, and
becoming a follower immediately".  These events flow through the same
FIFO as syscall records so the follower observes them at the right point
in the stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ControlKind(enum.Enum):
    """Kinds of control events."""

    #: The leader demotes itself; the consuming follower becomes leader
    #: once it has drained everything before this event.
    PROMOTE = "promote"


@dataclass(frozen=True)
class ControlEvent:
    """A non-syscall marker in the ring-buffer stream.

    ``at`` and ``version`` attribute the event to the virtual instant it
    was registered and the version that registered it, so log lines and
    traces can place a promotion precisely on the t1–t6 timeline.
    """

    kind: ControlKind
    #: Virtual time the event entered the ring stream (None: unknown).
    at: Optional[int] = None
    #: Version name of the process that registered the event.
    version: Optional[str] = None

    def describe(self) -> str:
        """Log-friendly form; carries time/version when known."""
        base = f"<control:{self.kind.value}"
        if self.at is not None:
            base += f" at={self.at}"
        if self.version is not None:
            base += f" by={self.version}"
        return base + ">"
