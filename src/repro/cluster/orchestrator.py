"""Canary-staged fleet upgrades under the per-shard MVE budget.

The :class:`FleetOrchestrator` drives one Mvedsua update round across a
sharded fleet (see :mod:`repro.cluster.shard`).  A round walks the
topology's :meth:`~repro.cluster.shard.FleetSpec.waves`:

* **wave 0 — the canary wave.**  Replica 0 of every shard gets the new
  version first.  Each canary is probed with live traffic while its
  leader-follower pair is validating; a divergence *demotes* the canary
  (the runtime already rolled the node itself back — the old leader
  never stopped) and triggers a **fleet-wide rollback**: every other
  in-flight update is abandoned and the round stops before the new
  version touches a second replica of any shard.
* **later waves** cover the remaining replica indexes, ``wave_size``
  replica slots at a time.  Within a shard the slots of one wave are
  processed strictly one after another, so a shard never runs more than
  one leader-follower pair — the paper's §1.2 suggestion for keeping
  MVE overhead bounded in replicated deployments.  The budget is
  *asserted*, not assumed: :meth:`FleetOrchestrator._sample_budget`
  raises :class:`FleetBudgetError` the moment any shard holds two pairs,
  and exports the worst case as the ``fleet.mve_pairs`` gauge.

Every step emits a ``fleet.*`` trace event via
:meth:`repro.obs.trace.Tracer.on_fleet`, and two chaos sites make the
round's failure paths reachable from fault plans: ``fleet.replica``
(``crash`` — the replica dies just as its slot comes up) and
``fleet.canary`` (``divergence`` — the canary is handed a buggy build,
exercising the demotion/rollback machinery end to end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.balancer import FleetBalancer
from repro.cluster.node import ClusterNode, NodeStatus
from repro.cluster.shard import FleetSpec, Shard
from repro.core.stages import Stage
from repro.dsu.version import ServerVersion
from repro.mve.dsl import RuleSet
from repro.sim.engine import MILLISECOND, SECOND
from repro.sites import OBS
from repro.workloads.client import VirtualClient

#: Outcomes a node can leave a round with (the report taxonomy).
NODE_OUTCOMES = ("updated", "demoted", "rolled-back", "crashed", "skipped")

#: Outcomes a round can end with.
ROUND_OUTCOMES = ("completed", "rolled-back", "aborted")


class FleetBudgetError(RuntimeError):
    """A shard held more than one leader-follower pair at once."""


@dataclass
class FleetNodeRecord:
    """What happened to one replica during a round."""

    shard: int
    node: str
    wave: int
    started_at: int
    finished_at: int
    outcome: str
    leader_pause_ns: int = 0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard, "node": self.node, "wave": self.wave,
                "started_at": self.started_at,
                "finished_at": self.finished_at, "outcome": self.outcome,
                "leader_pause_ns": self.leader_pause_ns,
                "detail": self.detail}


@dataclass
class FleetRoundReport:
    """One upgrade round, fleet-wide."""

    label: str
    version: str
    outcome: str = "completed"
    started_at: int = 0
    finished_at: int = 0
    records: List[FleetNodeRecord] = field(default_factory=list)

    @property
    def demotions(self) -> int:
        return sum(1 for r in self.records if r.outcome == "demoted")

    @property
    def updated(self) -> int:
        return sum(1 for r in self.records if r.outcome == "updated")

    def as_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "version": self.version,
                "outcome": self.outcome, "started_at": self.started_at,
                "finished_at": self.finished_at,
                "demotions": self.demotions, "updated": self.updated,
                "records": [r.as_dict() for r in self.records]}


class FleetOrchestrator:
    """Runs canary-staged Mvedsua rounds across a sharded fleet."""

    def __init__(self, balancer: FleetBalancer, spec: FleetSpec, *,
                 rules: Optional[RuleSet] = None,
                 validation_window_ns: int = 5 * SECOND) -> None:
        problems = spec.problems()
        if problems:
            raise ValueError("unusable fleet topology: "
                             + "; ".join(problems))
        self.balancer = balancer
        self.spec = spec
        self.rules = rules
        self.validation_window_ns = validation_window_ns
        #: Worst per-shard pair count ever sampled (must stay <= 1).
        self.max_mve_pairs_per_shard = 0
        #: Fleet-wide rollbacks triggered by canary demotions.
        self.rollbacks = 0

    # -- observability helpers -----------------------------------------

    def _emit(self, kind: str, at: int, **fields: Any) -> None:
        tracer = OBS.tracer
        if tracer is not None:
            tracer.on_fleet(kind, at, **fields)

    def _sample_budget(self, at: int) -> None:
        worst = max(shard.mve_pairs()
                    for shard in self.balancer.shard_map.shards)
        if worst > self.max_mve_pairs_per_shard:
            self.max_mve_pairs_per_shard = worst
        tracer = OBS.tracer
        if tracer is not None:
            tracer.metrics.gauge("fleet.mve_pairs").set(worst)
        if worst > 1:
            raise FleetBudgetError(
                f"a shard is running {worst} leader-follower pairs "
                f"(the fleet budget is one per shard)")

    # -- the round ------------------------------------------------------

    def run_round(self, version_factory: Callable[[], ServerVersion],
                  now: int, *, label: str = "") -> FleetRoundReport:
        """Upgrade the whole fleet to ``version_factory()``'s version.

        Returns the round report; the fleet is left either fully
        updated (``completed``) or fully on the old version
        (``rolled-back`` from the canary wave, ``aborted`` from a later
        one — either way no shard is left split across versions by this
        orchestrator's own doing).
        """
        probe_version = version_factory()
        report = FleetRoundReport(label=label or probe_version.name,
                                  version=probe_version.name,
                                  started_at=now)
        t = now
        self._emit("round_start", t, label=report.label,
                   version=report.version)
        spans = OBS.spans
        round_span = None
        if spans is not None:
            round_span = spans.open("fleet.round", "fleet", t,
                                    label=report.label,
                                    version=report.version)
        for wave_index, replica_slots in enumerate(self.spec.waves()):
            for slot in replica_slots:
                t, demoted = self._run_slot(version_factory, wave_index,
                                            slot, t, report)
                if demoted:
                    report.outcome = ("rolled-back" if wave_index == 0
                                      else "aborted")
                    report.finished_at = t
                    self._emit("round_end", t, label=report.label,
                               outcome=report.outcome)
                    if round_span is not None:
                        spans.close(round_span, t,
                                    outcome=report.outcome)
                    return report
        report.outcome = "completed"
        report.finished_at = t
        self._emit("round_end", t, label=report.label, outcome="completed")
        if round_span is not None:
            spans.close(round_span, t, outcome="completed")
        return report

    def _run_slot(self, version_factory: Callable[[], ServerVersion],
                  wave_index: int, slot: int, now: int,
                  report: FleetRoundReport) -> tuple:
        """One replica index across every shard: request, probe, settle.

        Returns ``(t, any_demotion)``.  All shards' updates for this
        slot run concurrently (each shard holds exactly one pair); a
        single demotion rolls back every other in-flight update.
        """
        chaos = OBS.chaos
        t = now
        in_flight: List[tuple] = []
        for shard in self.balancer.shard_map.shards:
            node = shard.nodes[slot]
            started = t
            if not node.healthy():
                report.records.append(FleetNodeRecord(
                    shard.index, node.name, wave_index, started, started,
                    "skipped", detail="replica is down"))
                continue
            if chaos is not None:
                fault = chaos.fire("fleet.replica", shard=shard.index,
                                   node=node.name, wave=wave_index,
                                   when=t)
                if fault is not None and fault.kind == "crash":
                    node.status = NodeStatus.FAILED
                    self._emit("replica_crash", t, shard=shard.index,
                               node=node.name, wave=wave_index)
                    report.records.append(FleetNodeRecord(
                        shard.index, node.name, wave_index, started, t,
                        "crashed", detail="fleet.replica/crash"))
                    continue
            version = version_factory()
            if wave_index == 0 and chaos is not None:
                fault = chaos.fire("fleet.canary", shard=shard.index,
                                   node=node.name, when=t)
                if fault is not None and fault.kind == "divergence":
                    # The canary gets a buggy build; validation traffic
                    # will catch the divergence and demote it.
                    version = fault.param["factory"](version)
            mvedsua = node.runtime
            leader_cpu = mvedsua.runtime.leader.cpu
            busy_before = max(t, leader_cpu.busy_until)
            attempt = mvedsua.request_update(version, t, rules=self.rules)
            if not attempt.ok:
                report.records.append(FleetNodeRecord(
                    shard.index, node.name, wave_index, started, t,
                    "skipped", detail=f"update refused: {attempt.reason}"))
                continue
            pause = leader_cpu.busy_until - busy_before
            self._emit("canary" if wave_index == 0 else "wave", t,
                       shard=shard.index, node=node.name,
                       wave=wave_index, version=version.name)
            self._sample_budget(t)
            in_flight.append((shard, node, mvedsua, started, pause))
            t += MILLISECOND

        # Validate every in-flight pair against live probe traffic; a
        # divergence auto-terminates the follower, which the stage check
        # below observes (last_divergence survives rollbacks, the stage
        # does not — that is why the verdict reads the stage).
        demoted: List[tuple] = []
        survivors: List[tuple] = []
        for shard, node, mvedsua, started, pause in in_flight:
            t = self._probe(node, t)
            if mvedsua.stage is Stage.OUTDATED_LEADER:
                survivors.append((shard, node, mvedsua, started, pause))
                continue
            node.status = NodeStatus.DEMOTED
            runtime = mvedsua.runtime
            detail = "divergence"
            if runtime.last_forensics is not None:
                detail = runtime.last_forensics.reason
            self._emit("demotion", t, shard=shard.index, node=node.name,
                       wave=wave_index, detail=detail)
            report.records.append(FleetNodeRecord(
                shard.index, node.name, wave_index, started, t,
                "demoted", leader_pause_ns=pause, detail=detail))
            demoted.append((shard, node))

        if demoted:
            # Fleet-wide rollback: abandon every other in-flight update
            # and re-admit the demoted canaries (their runtimes already
            # rolled back locally with no state loss).
            self.rollbacks += 1
            for shard, node, mvedsua, started, pause in survivors:
                mvedsua.rollback(t, reason="fleet-canary-rollback")
                self._emit("rollback", t, shard=shard.index,
                           node=node.name, wave=wave_index)
                report.records.append(FleetNodeRecord(
                    shard.index, node.name, wave_index, started, t,
                    "rolled-back", leader_pause_ns=pause,
                    detail="fleet-canary-rollback"))
            for shard, node in demoted:
                node.status = NodeStatus.SERVING
            self._sample_budget(t)
            return t, True

        for shard, node, mvedsua, started, pause in survivors:
            promote_at = t + self.validation_window_ns
            mvedsua.promote(promote_at)
            finished = mvedsua.finalize(
                promote_at + self.validation_window_ns)
            self._emit("promote", finished, shard=shard.index,
                       node=node.name, wave=wave_index)
            tracer = OBS.tracer
            if tracer is not None:
                tracer.span("fleet.slot", "fleet", started, finished,
                            shard=shard.index, node=node.name,
                            wave=wave_index)
            report.records.append(FleetNodeRecord(
                shard.index, node.name, wave_index, started, finished,
                "updated", leader_pause_ns=pause))
            self._sample_budget(finished)
            t = max(t, finished)
        return t, False

    def _probe(self, node: ClusterNode, now: int) -> int:
        """Exercise a validating pair with one write/read round trip.

        The probe runs through the node's own runtime, so the follower
        replays it from the ring — exactly the traffic shape that
        surfaces a cross-version divergence during validation.  Probe
        keys are namespaced (``__probe-…``) so fleet scenarios can keep
        them out of their semantic tables.
        """
        client = VirtualClient(node.kernel, node.address,
                               f"probe-{node.name}")
        t = now
        key = f"__probe-{node.name}"
        for line in (f"PUT {key} ok".encode("ascii"),
                     f"GET {key}".encode("ascii")):
            client.command(node.runtime, line, now=t)
            t += MILLISECOND
        client.close()
        node.pump(t)
        return t
