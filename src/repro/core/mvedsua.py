"""The Mvedsua orchestrator.

Ties together the DSU engine (Kitsune analogue) and the MVE runtime
(Varan analogue) exactly as the paper's §3.2 describes:

* an update request **forks** the leader; the **follower** performs the
  dynamic update off the critical path while the leader keeps serving;
* the follower then **catches up** by replaying the ring buffer, with
  programmer rules reconciling intentional cross-version differences;
* any divergence or follower crash **rolls back** the update — the old
  leader never stopped, so no state is lost;
* a leader crash **promotes** the follower (an old-version bug the new
  version fixed);
* the operator **promotes** the new version when confident, then
  **finalizes** by dropping the old version.

Nondeterministic failures (timing errors) are retried via
:class:`~repro.core.policy.RetryPolicy`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.policy import RetryPolicy
from repro.core.stages import Stage, UpdateTimeline
from repro.dsu.kitsune import Kitsune, UpdateAttempt
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion
from repro.errors import SimulationError
from repro.mve.dsl.rules import Direction, RuleSet
from repro.mve.varan import RuntimeEvent, VaranRuntime
from repro.net.kernel import VirtualKernel
from repro.sites import OBS
from repro.syscalls.costs import AppProfile


class Lifecycle:
    """Where one deployment's updates stand: the stage, the open update's
    timeline and the closed ones.

    The runtime's observer is :meth:`on_runtime_event`, so the runtime
    points at this object and never back up at the :class:`Mvedsua`
    that owns both: a dropped deployment is freed by reference counting.
    """

    __slots__ = ("stage", "timeline", "history")

    def __init__(self) -> None:
        self.stage = Stage.SINGLE_LEADER
        self.timeline: Optional[UpdateTimeline] = None
        self.history: List[UpdateTimeline] = []

    def enter(self, stage: Stage, phase: str) -> None:
        """One lifecycle transition: the deployment's stage, and the
        run's position every observer reads (``OBS.stage`` for chaos
        triggers, ``OBS.phase`` stamped onto new spans)."""
        self.stage = stage
        OBS.stage, OBS.phase = stage.value, phase

    def on_runtime_event(self, event: RuntimeEvent) -> None:
        """Reconcile the stage with what the runtime just did.

        MVE mode ends on one of two transitions, and the update
        succeeded iff the new version leads afterwards: a terminated
        follower is the old version only in the updated-leader stage,
        and a crashed leader is the old version only in the
        outdated-leader stage."""
        kind, at = event.kind, event.at
        timeline = self.timeline
        if kind == "promoted":
            self.enter(Stage.UPDATED_LEADER, "promoted")
            if timeline is not None and timeline.t5_promoted is None:
                timeline.t5_promoted = at
            return
        if kind == "follower-terminated":
            succeeded = self.stage is Stage.UPDATED_LEADER
            ended_by = event.detail
        elif kind == "follower-promoted-after-crash":
            succeeded = self.stage is Stage.OUTDATED_LEADER
            ended_by = "leader-crash"
            if timeline is not None and timeline.t5_promoted is None:
                timeline.t5_promoted = at
        else:
            return
        if timeline is not None:
            if succeeded:
                timeline.t6_finalized = at
            else:
                timeline.rolled_back_at = at
            timeline.ended_by = ended_by
            self.history.append(timeline)
            self.timeline = None
        self.enter(Stage.SINGLE_LEADER,
                   "promoted" if succeeded else "rolled-back")


class Mvedsua:
    """One Mvedsua-supervised server deployment."""

    def __init__(self, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *,
                 transforms: TransformRegistry,
                 ring_capacity: int = 256,
                 ring_link: Optional[Any] = None) -> None:
        # ``ring_link`` (a repro.net RingLink) makes this a cross-node
        # pair: the ring becomes a DistributedRing and every published
        # burst pays the link's latency/bandwidth/window costs.
        ring = None
        if ring_link is not None:
            from repro.mve.distring import DistributedRing
            ring = DistributedRing(ring_capacity, ring_link)
        self.runtime = VaranRuntime(kernel, server, profile,
                                    ring_capacity=ring_capacity,
                                    with_kitsune=True,
                                    ring=ring)
        self.lifecycle = Lifecycle()
        self.runtime.observer = self.lifecycle.on_runtime_event
        self.profile = profile
        self.kitsune = Kitsune(transforms)
        # A new deployment resets the run's stage (what ``at-stage``
        # triggers match), not its span phase: that is where the run's
        # last update left it.
        OBS.stage = self.lifecycle.stage.value

    @property
    def stage(self) -> Stage:
        """Which of the paper's three stages the deployment is in."""
        return self.lifecycle.stage

    @property
    def timeline(self) -> Optional[UpdateTimeline]:
        """The update in flight, if any."""
        return self.lifecycle.timeline

    @property
    def history(self) -> List[UpdateTimeline]:
        """Every completed update's timeline, oldest first."""
        return self.lifecycle.history

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def pump(self, now: int) -> int:
        """Serve pending input and keep the follower catching up."""
        done = self.runtime.pump(now)
        self._advance_follower()
        return done

    def _advance_follower(self) -> None:
        runtime = self.runtime
        if not runtime.lanes:
            return
        runtime.drain_follower()
        timeline = self.lifecycle.timeline
        if (timeline is not None
                and timeline.t3_caught_up is None
                and timeline.t2_updated is not None
                and runtime.lanes
                and runtime.ring.is_empty()):
            timeline.t3_caught_up = runtime.follower.cpu.busy_until

    # ------------------------------------------------------------------
    # The update lifecycle
    # ------------------------------------------------------------------

    def request_update(self, new_version: ServerVersion, now: int, *,
                       rules: Optional[RuleSet] = None) -> UpdateAttempt:
        """Start a dynamic update (the paper's t1).

        ``rules`` are the rewrite rules for this version pair.  Kitsune's
        update step runs on the leader; the child is forked around its
        output.

        On success the deployment enters the outdated-leader stage.  On
        failure the leader is untouched and the attempt says why.
        """
        lifecycle = self.lifecycle
        self._require(Stage.SINGLE_LEADER, "update")
        leader_server = self.runtime.leader.server
        attempt, new_version, new_heap = self.kitsune.begin_update(
            leader_server, new_version, at=now,
            xform_entry_ns=self.profile.xform_entry_ns or 0)
        if not attempt.ok:
            if attempt.reason == "transform-failed":
                # The follower never comes up; the leader resumes as if
                # nothing happened.
                leader_server.run_abort_callback()
            return attempt
        quiesce_ns, xform_ns = attempt.quiesce_ns, attempt.xform_ns

        # The transformer got the one copy of the leader's heap the
        # update makes, and the child is forked around its output (the
        # fork's copy-on-write).
        child = leader_server.fork(new_heap)
        child.apply_version(new_version, new_heap)

        if rules is not None:
            self.runtime.rules = rules
        self.runtime.stage_direction = Direction.OUTDATED_LEADER
        follower = self.runtime.fork_follower(now + quiesce_ns, server=child)
        t1 = follower.cpu.busy_until  # the follower's CPU starts at the fork
        # The dynamic update runs on the follower, off the leader's
        # critical path.
        t2 = follower.cpu.charge(t1, xform_ns)
        # The leader aborts its own update and resumes.
        leader_server.run_abort_callback()

        lifecycle.timeline = UpdateTimeline(t1_forked=t1, t2_updated=t2)
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit("dsu.xform", "dsu", at=t2, ns=xform_ns,
                        entries=attempt.entries, version=new_version.name)
            tracer.emit("dsu.applied", "dsu", at=t1, t1=t1, t2=t2,
                        old=leader_server.version.name,
                        new=new_version.name)
            tracer.emit("dsu.resume", "dsu", at=t1)
        spans = OBS.spans
        if spans is not None:
            update = spans.add("dsu.update", "dsu", now, t2,
                               old=leader_server.version.name,
                               new=new_version.name)
            spans.add("dsu.quiesce", "dsu", now, now + quiesce_ns,
                      parent=update.span_id)
            spans.add("dsu.fork", "dsu", now + quiesce_ns, t1,
                      parent=update.span_id)
            spans.add("dsu.xform", "dsu", t1, t2,
                      parent=update.span_id, version=new_version.name)
        lifecycle.enter(Stage.OUTDATED_LEADER, "mve-active")
        attempt.at = t1
        return attempt

    def request_update_with_retry(self, new_version: ServerVersion,
                                  now: int, *,
                                  rules: Optional[RuleSet] = None,
                                  policy: Optional[RetryPolicy] = None
                                  ) -> List[UpdateAttempt]:
        """Retry nondeterministic failures until the update installs.

        Returns all attempts; the last one is successful unless the
        policy's attempt budget ran out.  Deterministic failures
        (transform errors) are not retried — the paper notes those need
        a fixed update, not another try.
        """
        policy = policy or RetryPolicy()
        attempts: List[UpdateAttempt] = []
        at = now
        for _ in range(policy.max_attempts):
            attempt = self.request_update(new_version, at, rules=rules)
            attempts.append(attempt)
            if attempt.ok or attempt.reason == "transform-failed":
                return attempts
            at = policy.next_attempt_at(at)
        return attempts

    def _require(self, stage: Stage, action: str) -> None:
        """Refuse ``action`` outside ``stage``."""
        if self.lifecycle.stage is not stage:
            raise SimulationError(
                f"cannot {action} in stage {self.lifecycle.stage.value}")

    def promote(self, now: int) -> int:
        """Expose the new version to clients (t4 -> t5).

        The swap stamps t5; a divergence found by the promotion drain
        rolls the update back instead."""
        self._require(Stage.OUTDATED_LEADER, "promote")
        self.lifecycle.timeline.t4_demote = now
        return self.runtime.promote(now)

    def finalize(self, now: int) -> int:
        """Make the update permanent; drop the old version (t6)."""
        self._require(Stage.UPDATED_LEADER, "finalize")
        return self.runtime.finalize(now)

    def rollback(self, now: int, reason: str = "operator") -> int:
        """Abandon the update; the old version continues as sole leader."""
        self._require(Stage.OUTDATED_LEADER, "roll back")
        return self.runtime.terminate_follower(now, reason=reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def current_version(self) -> str:
        """The version clients are being served by."""
        return self.runtime.leader.version_name

    def last_outcome(self) -> Optional[UpdateTimeline]:
        """The most recently completed update's timeline."""
        history = self.lifecycle.history
        return history[-1] if history else None
