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

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.policy import RetryPolicy
from repro.core.stages import Stage, UpdateTimeline
from repro.dsu.kitsune import Kitsune
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion
from repro.errors import QuiescenceTimeout, SimulationError, StateTransformError
from repro.mve.dsl.rules import Direction, RuleSet
from repro.mve.varan import RuntimeEvent, VaranRuntime
from repro.net.kernel import VirtualKernel
from repro.sites import OBS
from repro.syscalls.costs import AppProfile


@dataclass
class UpdateAttempt:
    """Outcome of one ``request_update`` call."""

    ok: bool
    reason: str
    at: int
    quiesce_ns: int = 0
    xform_ns: int = 0
    entries: int = 0
    error: Optional[str] = None


class Mvedsua:
    """One Mvedsua-supervised server deployment."""

    def __init__(self, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *,
                 transforms: TransformRegistry,
                 ring_capacity: int = 256,
                 quiesce_timeout_ns: int = 50_000_000,
                 ring_link: Optional[Any] = None) -> None:
        # ``ring_link`` (a repro.net RingLink) makes this a cross-node
        # pair: the ring becomes a DistributedRing and every published
        # burst pays the link's latency/bandwidth/window costs.
        ring = None
        if ring_link is not None:
            from repro.mve.distring import DistributedRing
            ring = DistributedRing(ring_capacity, ring_link)
        self.ring_link = ring_link
        self.runtime = VaranRuntime(kernel, server, profile,
                                    ring_capacity=ring_capacity,
                                    with_kitsune=True,
                                    ring=ring)
        self.runtime.observer = self._on_runtime_event
        self.profile = profile
        self.kitsune = Kitsune(transforms, quiesce_timeout_ns)
        self.stage = Stage.SINGLE_LEADER
        self.timeline: Optional[UpdateTimeline] = None
        self.history: List[UpdateTimeline] = []
        self._note_chaos_stage()

    def _note_chaos_stage(self) -> None:
        """Tell an installed chaos injector which update stage we are in,
        so ``at-stage`` fault triggers can resolve."""
        chaos = OBS.chaos
        if chaos is not None:
            chaos.note_stage(self.stage.value)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def pump(self, now: int) -> int:
        """Serve pending input and keep the follower catching up."""
        done = self.runtime.pump(now)
        self._advance_follower()
        return done

    def _advance_follower(self) -> None:
        if self.runtime.in_mve_mode:
            self.runtime.drain_follower()
        if (self.timeline is not None
                and self.timeline.t3_caught_up is None
                and self.timeline.t2_updated is not None
                and self.runtime.in_mve_mode
                and self.runtime.ring.is_empty()):
            self.timeline.t3_caught_up = \
                self.runtime.follower.cpu.busy_until

    # ------------------------------------------------------------------
    # The update lifecycle
    # ------------------------------------------------------------------

    def request_update(self, new_version: ServerVersion, now: int, *,
                       rules: Optional[RuleSet] = None,
                       prepare: Optional[Callable[[Any], None]] = None
                       ) -> UpdateAttempt:
        """Start a dynamic update (the paper's t1).

        ``rules`` are the rewrite rules for this version pair.
        ``prepare`` runs against the leader server just before quiescence
        — used by experiments to (re)sample thread states.

        On success the deployment enters the outdated-leader stage.  On
        failure the leader is untouched and the attempt says why.
        """
        if self.stage is not Stage.SINGLE_LEADER:
            raise SimulationError(
                f"cannot update while in stage {self.stage.value}")
        chaos = OBS.chaos
        if chaos is not None:
            chaos.advance(now)
            fault = chaos.fire("dsu.update")
            if fault is not None:
                # "buggy-version": the operator ships a broken build —
                # the E1 fault class.
                new_version = fault.param["factory"](new_version)
        leader_server = self.runtime.leader.server
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_dsu("request", now,
                          old=leader_server.version.name,
                          new=new_version.name)
        if prepare is not None:
            prepare(leader_server)

        # Phase 1: quiesce all leader threads at update points.
        try:
            quiesce_ns = self.kitsune.quiesce(leader_server.program)
        except QuiescenceTimeout as exc:
            if tracer is not None:
                tracer.on_dsu("failed", now, reason="quiescence-failed",
                              error=str(exc))
            return UpdateAttempt(False, "quiescence-failed", now,
                                 error=str(exc))
        if tracer is not None:
            tracer.on_dsu("quiesce", now + quiesce_ns, ns=quiesce_ns)

        # Phase 2: fork; the child performs the update.
        child = leader_server.fork()
        try:
            new_heap, xform_ns, entries = self.kitsune.transform(
                child.program, new_version,
                xform_entry_ns=self.profile.xform_entry_ns or 0)
        except StateTransformError as exc:
            # Detectable transformer failure: the follower never comes
            # up; the leader resumes as if nothing happened.
            leader_server.program.run_abort_callback()
            if tracer is not None:
                tracer.on_dsu("failed", now, reason="transform-failed",
                              error=str(exc))
            return UpdateAttempt(False, "transform-failed", now,
                                 quiesce_ns=quiesce_ns, error=str(exc))
        child.apply_version(new_version, new_heap)
        if hasattr(child, "on_update_applied"):
            # Kitsune relaunches threads in the new version; servers use
            # this hook to reinitialise library state (e.g. LibEvent).
            child.on_update_applied()

        if rules is not None:
            self.runtime.rules = rules
        self.runtime.stage_direction = Direction.OUTDATED_LEADER
        follower = self.runtime.fork_follower(now + quiesce_ns, server=child)
        t1 = self.runtime.events[-1].at  # the fork event
        # Phase 3: the dynamic update runs on the follower, off the
        # leader's critical path.
        t2 = follower.cpu.charge(t1, xform_ns)
        # Phase 4: the leader aborts its own update and resumes.
        leader_server.program.run_abort_callback()

        self.stage = Stage.OUTDATED_LEADER
        self._note_chaos_stage()
        self.timeline = UpdateTimeline(t1_forked=t1, t2_updated=t2)
        if tracer is not None:
            tracer.on_dsu("xform", t2, ns=xform_ns, entries=entries,
                          version=new_version.name)
            tracer.on_dsu("applied", t1, t1=t1, t2=t2,
                          old=leader_server.version.name,
                          new=new_version.name)
            tracer.on_dsu("resume", t1)
            spans = tracer.spans
            if spans is not None:
                update = spans.add("dsu.update", "dsu", now, t2,
                                   old=leader_server.version.name,
                                   new=new_version.name)
                spans.add("dsu.quiesce", "dsu", now, now + quiesce_ns,
                          parent=update.span_id)
                spans.add("dsu.fork", "dsu", now + quiesce_ns, t1,
                          parent=update.span_id)
                spans.add("dsu.xform", "dsu", t1, t2,
                          parent=update.span_id,
                          version=new_version.name)
                spans.set_phase("mve-active")
        return UpdateAttempt(True, "applied", t1, quiesce_ns=quiesce_ns,
                             xform_ns=xform_ns, entries=entries)

    def request_update_with_retry(self, new_version: ServerVersion,
                                  now: int, *,
                                  rules: Optional[RuleSet] = None,
                                  prepare: Optional[Callable[[Any], None]] = None,
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
            attempt = self.request_update(new_version, at, rules=rules,
                                          prepare=prepare)
            attempts.append(attempt)
            if attempt.ok or attempt.reason == "transform-failed":
                return attempts
            at = policy.next_attempt_at(at)
        return attempts

    def promote(self, now: int) -> int:
        """Expose the new version to clients (t4 -> t5)."""
        if self.stage is not Stage.OUTDATED_LEADER:
            raise SimulationError(
                f"cannot promote from stage {self.stage.value}")
        assert self.timeline is not None
        self.timeline.t4_demote = now
        t5 = self.runtime.promote(now)
        # The promotion drain may instead have discovered a divergence
        # and rolled the update back — in which case the observer already
        # closed the timeline and there is nothing to stamp.
        if self.timeline is not None and self.timeline.t5_promoted is None:
            self.timeline.t5_promoted = t5
        return t5

    def finalize(self, now: int) -> int:
        """Make the update permanent; drop the old version (t6)."""
        return self.runtime.finalize(now)

    def rollback(self, now: int, reason: str = "operator") -> int:
        """Abandon the update; the old version continues as sole leader."""
        if self.stage is not Stage.OUTDATED_LEADER:
            raise SimulationError(
                f"cannot roll back from stage {self.stage.value}")
        return self.runtime.terminate_follower(now, reason=reason)

    # ------------------------------------------------------------------
    # Stage reconciliation from runtime events
    # ------------------------------------------------------------------

    def _set_span_phase(self, phase: str) -> None:
        """Advance the span collector's upgrade phase (no-op when spans
        are off)."""
        spans = OBS.spans
        if spans is not None:
            spans.set_phase(phase)

    def _on_runtime_event(self, event: RuntimeEvent) -> None:
        if event.kind == "promoted":
            self.stage = Stage.UPDATED_LEADER
            self._note_chaos_stage()
            self._set_span_phase("promoted")
            if self.timeline is not None \
                    and self.timeline.t5_promoted is None:
                self.timeline.t5_promoted = event.at
        elif event.kind == "follower-terminated":
            final = (event.detail == "finalize"
                     or self.stage is Stage.UPDATED_LEADER)
            self._close_timeline(event)
            self.stage = Stage.SINGLE_LEADER
            self._note_chaos_stage()
            self._set_span_phase("promoted" if final else "rolled-back")
        elif event.kind == "follower-promoted-after-crash":
            # The new version became the sole leader because the old
            # version crashed: the update is now permanent.
            if self.timeline is not None:
                self.timeline.t5_promoted = event.at
                self.timeline.t6_finalized = event.at
                self.history.append(self.timeline)
                self.timeline = None
            self.stage = Stage.SINGLE_LEADER
            self._note_chaos_stage()
            self._set_span_phase("promoted")

    def _close_timeline(self, event: RuntimeEvent) -> None:
        if self.timeline is None:
            return
        if event.detail == "finalize" or self.stage is Stage.UPDATED_LEADER:
            # Terminating the *outdated* follower makes the update final.
            self.timeline.t6_finalized = event.at
        else:
            self.timeline.rolled_back_at = event.at
        self.history.append(self.timeline)
        self.timeline = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def current_version(self) -> str:
        """The version clients are being served by."""
        return self.runtime.leader.version_name

    def last_outcome(self) -> Optional[UpdateTimeline]:
        """The most recently completed update's timeline."""
        if self.history:
            return self.history[-1]
        return None
