"""Operator console and auto-pilot policies.

The paper leaves promotion and finalization to the operator: "If the new
version shows no problems after a warmup period, operators can make it
permanent and discard the original version".  The console packages that
workflow:

* :class:`OperatorConsole` — status inspection and guarded manual
  actions over one Mvedsua deployment;
* :class:`AutoPilot` — the codified warmup policy: promote after the
  follower has validated cleanly for ``warmup_ns`` and at least
  ``min_validated_requests`` requests, finalize after a second clean
  window; roll back is automatic in the runtime, so the auto-pilot only
  ever advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.mvedsua import Mvedsua
from repro.core.stages import Stage
from repro.sim.engine import SECOND


@dataclass
class DeploymentStatus:
    """A point-in-time snapshot of one deployment."""

    stage: str
    serving_version: str
    validating_version: Optional[str]
    ring_occupancy: int
    ring_high_watermark: int
    rules_fired: int
    divergence: Optional[str]
    updates_completed: int
    updates_rolled_back: int


class OperatorConsole:
    """Human-facing view over a Mvedsua deployment."""

    def __init__(self, mvedsua: Mvedsua) -> None:
        self.mvedsua = mvedsua

    def status(self) -> DeploymentStatus:
        """Snapshot the deployment."""
        runtime = self.mvedsua.runtime
        follower = runtime.follower
        history = self.mvedsua.history
        return DeploymentStatus(
            stage=self.mvedsua.stage.value,
            serving_version=runtime.leader.version_name,
            validating_version=(follower.version_name
                                if follower is not None else None),
            ring_occupancy=len(runtime.ring),
            ring_high_watermark=runtime.ring.high_watermark,
            rules_fired=len(runtime.rules_fired),
            divergence=(str(runtime.last_divergence)
                        if runtime.last_divergence else None),
            updates_completed=sum(1 for t in history if t.succeeded()),
            updates_rolled_back=sum(1 for t in history
                                    if t.rolled_back()),
        )

    def render_status(self) -> str:
        """One-screen textual status."""
        status = self.status()
        lines = [
            f"stage:             {status.stage}",
            f"serving:           {status.serving_version}",
            f"validating:        {status.validating_version or '-'}",
            f"ring occupancy:    {status.ring_occupancy} "
            f"(high watermark {status.ring_high_watermark})",
            f"rules fired:       {status.rules_fired}",
            f"last divergence:   {status.divergence or '-'}",
            f"updates completed: {status.updates_completed}, "
            f"rolled back: {status.updates_rolled_back}",
        ]
        return "\n".join(lines)


@dataclass
class AutoPilot:
    """Codified warmup policy for promotion and finalization.

    Call :meth:`observe` after every pump; it advances the deployment
    when the policy's conditions hold.  Returns the action taken (if
    any) so callers/tests can trace decisions.
    """

    mvedsua: Mvedsua
    #: Clean validation time before promoting the new version.
    warmup_ns: int = 60 * SECOND
    #: Minimum requests the follower must have validated before
    #: promotion (time alone is not confidence under low traffic).
    min_validated_requests: int = 100
    #: Clean updated-leader time before dropping the old version.
    confirm_ns: int = 60 * SECOND

    _validated_requests: int = 0
    _last_seen_served: int = 0

    def observe(self, now: int) -> Optional[str]:
        """Advance the deployment if the policy says so."""
        mvedsua = self.mvedsua
        runtime = mvedsua.runtime
        # Count validated requests (served while a follower is attached
        # and caught up enough to have replayed them).
        served = runtime.requests_served
        if runtime.in_mve_mode:
            self._validated_requests += served - self._last_seen_served
        self._last_seen_served = served

        timeline = mvedsua.timeline
        if timeline is None:
            return None
        if mvedsua.stage is Stage.OUTDATED_LEADER:
            if timeline.t2_updated is None:
                return None
            warm = now - timeline.t2_updated >= self.warmup_ns
            enough = self._validated_requests >= self.min_validated_requests
            if warm and enough and runtime.ring.is_empty():
                mvedsua.promote(now)
                return "promoted"
        elif mvedsua.stage is Stage.UPDATED_LEADER:
            promoted_at = timeline.t5_promoted
            if promoted_at is not None \
                    and now - promoted_at >= self.confirm_ns:
                mvedsua.finalize(now)
                self._validated_requests = 0
                return "finalized"
        return None
