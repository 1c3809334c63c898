"""Mvedsua — the paper's contribution: DSU + MVE.

:class:`~repro.core.mvedsua.Mvedsua` drives the stage machine of the
paper's Figure 2 over a :class:`~repro.mve.varan.VaranRuntime` (the MVE
monitor) and a :class:`~repro.dsu.kitsune.Kitsune` engine (the DSU
system):

* ``single-leader`` — steady state, minimal overhead;
* ``outdated-leader`` — an update was requested: the leader forked, the
  follower updated and is catching up; the old version is authoritative
  and the new version is being validated against it;
* ``updated-leader`` — the operator promoted the new version; the old
  version now validates it in reverse;
* back to ``single-leader`` once the operator finalizes (or automatically
  when a divergence/crash terminates one side).

Nothing promotes or finalizes by itself: ``Mvedsua.promote`` and
``Mvedsua.finalize`` are the operator's calls, and ``Mvedsua.history``
keeps every closed update's timeline.
"""

from repro.core.stages import Stage, UpdateTimeline
from repro.core.policy import RetryPolicy
from repro.core.mvedsua import Mvedsua, UpdateAttempt

__all__ = [
    "Stage",
    "UpdateTimeline",
    "RetryPolicy",
    "Mvedsua",
    "UpdateAttempt",
]
