"""The Mvedsua stage machine (the paper's Figure 2)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Stage(enum.Enum):
    """Where a Mvedsua deployment is in its update lifecycle."""

    SINGLE_LEADER = "single-leader"
    OUTDATED_LEADER = "outdated-leader"
    UPDATED_LEADER = "updated-leader"


@dataclass
class UpdateTimeline:
    """The t1..t6 instants of Figure 2, filled in as an update progresses.

    All values are virtual nanoseconds; None means "not reached".
    """

    #: Update requested; leader forked the follower.
    t1_forked: Optional[int] = None
    #: Follower finished the dynamic update and starts consuming the ring.
    t2_updated: Optional[int] = None
    #: Follower caught up with the leader (ring drained).
    t3_caught_up: Optional[int] = None
    #: Operator asked for promotion; leader demotes itself.
    t4_demote: Optional[int] = None
    #: New version took over as leader.
    t5_promoted: Optional[int] = None
    #: Outdated follower terminated; back to single-leader.
    t6_finalized: Optional[int] = None
    #: The update was rolled back (terminal, mutually exclusive with t6).
    rolled_back_at: Optional[int] = None
    #: What ended MVE mode: the runtime's termination reason
    #: (``finalize``, ``divergence``, ``crash``, ``operator``, ...), or
    #: ``leader-crash`` when a crashed leader's follower took over.
    ended_by: Optional[str] = None

    def update_duration_ns(self) -> Optional[int]:
        """How long the dynamic update ran on the follower (t2 - t1)."""
        if self.t1_forked is None or self.t2_updated is None:
            return None
        return self.t2_updated - self.t1_forked

    def succeeded(self) -> bool:
        """True once the update was made permanent."""
        return self.t6_finalized is not None

    def rolled_back(self) -> bool:
        """True if the update was abandoned and the old version kept."""
        return self.rolled_back_at is not None
