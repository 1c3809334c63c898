"""Rolling-upgrade coordinators.

:class:`RollingUpgrade` is the industry-standard strategy the paper's
§1.1 describes: drain each node (stop routing new connections to it,
wait for existing sessions to finish), stop-restart it on the new
version, move on.  Two problems fall out, both measured here:

* sessions that never finish must eventually be *dropped* (the paper's
  SSH/long-lived-session argument);
* a restarted stateful node loses its in-memory state.

:class:`MvedsuaRollingUpgrade` runs the same loop (it overrides only the
per-node step) but updates each node in place with Mvedsua: no
draining, no drops, no state loss — and only one node at a time pays
the leader-follower overhead, which is the paper's §1.2 suggestion for
mitigating MVE cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.baselines.restart import StopRestart
from repro.cluster.node import ClusterNode, NodeStatus
from repro.dsu.version import ServerVersion
from repro.mve.dsl import RuleSet
from repro.sim.engine import SECOND


@dataclass
class NodeUpgradeRecord:
    """What happened to one node during the rolling upgrade."""

    node: str
    started_at: int
    finished_at: int
    sessions_dropped: int
    state_entries_lost: int
    leader_pause_ns: int = 0


@dataclass
class UpgradeSummary:
    """Cluster-wide result."""

    strategy: str
    records: List[NodeUpgradeRecord] = field(default_factory=list)

    @property
    def total_sessions_dropped(self) -> int:
        return sum(r.sessions_dropped for r in self.records)

    @property
    def total_state_lost(self) -> int:
        return sum(r.state_entries_lost for r in self.records)

    @property
    def duration_ns(self) -> int:
        if not self.records:
            return 0
        return (max(r.finished_at for r in self.records)
                - min(r.started_at for r in self.records))

    def all_upgraded_to(self, version: str,
                        nodes: List[ClusterNode]) -> bool:
        return all(node.version_name == version for node in nodes)


class RollingUpgrade:
    """Drain / stop-restart / resume, one node at a time."""

    strategy = "rolling-restart"

    def __init__(self, nodes: List[ClusterNode], *,
                 drain_timeout_ns: int = 30 * SECOND) -> None:
        self.nodes = list(nodes)
        self.drain_timeout_ns = drain_timeout_ns

    def upgrade(self, version_factory: Callable[[], ServerVersion],
                now: int) -> UpgradeSummary:
        """Upgrade every node in turn; returns the cluster-wide summary."""
        summary = UpgradeSummary(self.strategy)
        t = now
        for node in self.nodes:
            record = self._upgrade_node(node, version_factory(), t)
            summary.records.append(record)
            t = record.finished_at
        return summary

    def _upgrade_node(self, node: ClusterNode,
                      new_version: ServerVersion,
                      now: int) -> NodeUpgradeRecord:
        node.status = NodeStatus.DRAINING
        # Let in-flight work finish; sessions that survive the whole
        # drain window are long-lived and must be cut.
        node.pump(now)
        drained_at = now + self.drain_timeout_ns
        dropped = self._force_close_sessions(node)

        node.status = NodeStatus.RESTARTING
        entries_before = node.server.version.heap_entries(node.server.heap)
        report = StopRestart().perform(node.runtime, new_version,
                                       drained_at)
        entries_after = node.server.version.heap_entries(node.server.heap)
        node.status = NodeStatus.SERVING
        return NodeUpgradeRecord(
            node=node.name,
            started_at=now,
            finished_at=drained_at + report.pause_ns,
            sessions_dropped=dropped,
            state_entries_lost=entries_before - entries_after)

    @staticmethod
    def _force_close_sessions(node: ClusterNode) -> int:
        dropped = 0
        for fd in list(node.server.sessions):
            if node.kernel.is_open(node.server.domain, fd):
                node.kernel.close(node.server.domain, fd)
            node.server.sessions.pop(fd, None)
            dropped += 1
        return dropped


class MvedsuaRollingUpgrade(RollingUpgrade):
    """Per-node Mvedsua updates: no drain, no drops, no state loss."""

    strategy = "mvedsua-rolling"

    def __init__(self, nodes: List[ClusterNode], *,
                 validation_window_ns: int = 5 * SECOND,
                 rules: Optional[RuleSet] = None) -> None:
        super().__init__(nodes)
        self.validation_window_ns = validation_window_ns
        self.rules = rules

    def _upgrade_node(self, node: ClusterNode,
                      new_version: ServerVersion,
                      now: int) -> NodeUpgradeRecord:
        mvedsua = node.runtime
        leader_cpu = mvedsua.runtime.leader.cpu
        busy_before = max(now, leader_cpu.busy_until)
        entries_before = node.server.version.heap_entries(node.server.heap)

        attempt = mvedsua.request_update(new_version, now,
                                         rules=self.rules)
        if not attempt.ok:
            raise RuntimeError(f"update failed on {node.name}: "
                               f"{attempt.reason}")
        leader_pause = leader_cpu.busy_until - busy_before
        # The node keeps serving (still SERVING) while the new version
        # is validated against live traffic, then flips over.
        promote_at = now + self.validation_window_ns
        mvedsua.promote(promote_at)
        finished = mvedsua.finalize(promote_at + self.validation_window_ns)
        leader = mvedsua.runtime.leader.server
        entries_after = leader.version.heap_entries(leader.heap)
        return NodeUpgradeRecord(
            node=node.name,
            started_at=now,
            finished_at=finished,
            sessions_dropped=0,
            state_entries_lost=max(0, entries_before - entries_after),
            leader_pause_ns=leader_pause)
