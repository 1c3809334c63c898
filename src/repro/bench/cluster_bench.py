"""Cluster ablation: rolling restart vs Mvedsua-per-node (paper §1.1/§1.2).

A stateful 4-node cluster with long-lived client sessions is upgraded
two ways:

* **rolling restart** — the industry standard: drain, stop, restart.
  Long-lived sessions get dropped and every node's in-memory state is
  lost.
* **Mvedsua rolling** — each node updated in place under MVE, one at a
  time: nothing is dropped, nothing is lost, and at most one node pays
  leader-follower overhead at any instant (the paper's §1.2 mitigation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Tuple

from repro.apps import app
from repro.bench.reporting import format_ms, format_table
from repro.cluster import (
    ClusterNode,
    LoadBalancer,
    MvedsuaRollingUpgrade,
    RollingUpgrade,
    UpgradeSummary,
)
from repro.net import VirtualKernel
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES

NODES = 4
ENTRIES_PER_NODE = 10_000
LONG_LIVED_CLIENTS = 8


def build_cluster(mvedsua: bool) -> Tuple[LoadBalancer, list]:
    """A seeded cluster with long-lived sessions attached."""
    kernel = VirtualKernel()
    kvstore = app("kvstore")
    nodes = []
    for index in range(NODES):
        server = kvstore.server("1.0", address=(f"10.0.0.{index + 1}", 7000))
        server.attach(kernel)
        node = ClusterNode(f"node-{index}", kernel, server,
                           PROFILES[server.profile_name],
                           transforms=kvstore.transforms if mvedsua else None)
        node.current_server.heap["table"].update(
            {f"{node.name}-k{i}": "v" for i in range(ENTRIES_PER_NODE)})
        nodes.append(node)
    balancer = LoadBalancer(nodes)
    clients = []
    for index in range(LONG_LIVED_CLIENTS):
        client, node = balancer.connect(f"session-{index}")
        client.command(node.runtime, b"PUT session%d alive" % index)
        clients.append((client, node))
    return balancer, clients


@dataclass
class ClusterComparison:
    rolling: UpgradeSummary
    mvedsua: UpgradeSummary
    rolling_sessions_before: int
    mvedsua_live_sessions_ok: int
    state_entries_before: int = NODES * ENTRIES_PER_NODE


def run_cluster_comparison() -> ClusterComparison:
    kvstore = app("kvstore")
    new_version = partial(kvstore.version, "2.0")
    balancer, clients = build_cluster(mvedsua=False)
    rolling = RollingUpgrade(balancer, drain_timeout_ns=30 * SECOND
                             ).upgrade(new_version, SECOND)
    assert rolling.all_upgraded_to("2.0", balancer)

    balancer, clients = build_cluster(mvedsua=True)
    upgrade = MvedsuaRollingUpgrade(balancer,
                                    rules=kvstore.rules_for("1.0", "2.0"))
    mvedsua = upgrade.upgrade(new_version, SECOND)
    assert mvedsua.all_upgraded_to("2.0", balancer)
    live_ok = 0
    for index, (client, node) in enumerate(clients):
        reply = client.command(node.runtime, b"GET session%d" % index,
                               now=600 * SECOND)
        if reply == b"alive\r\n":
            live_ok += 1
    return ClusterComparison(
        rolling=rolling, mvedsua=mvedsua,
        rolling_sessions_before=LONG_LIVED_CLIENTS,
        mvedsua_live_sessions_ok=live_ok)


def render(comparison: ClusterComparison) -> str:
    rows = []
    for summary in (comparison.rolling, comparison.mvedsua):
        rows.append([
            summary.strategy,
            summary.total_sessions_dropped,
            summary.total_state_lost,
            format_ms(summary.duration_ns),
            format_ms(max((r.leader_pause_ns for r in summary.records),
                          default=0)),
        ])
    table = format_table(
        ["strategy", "sessions dropped", "state entries lost",
         "cluster upgrade time", "worst per-node pause"], rows)
    return (table + "\n"
            f"Long-lived sessions still working after Mvedsua rolling "
            f"upgrade: {comparison.mvedsua_live_sessions_ok}"
            f"/{comparison.rolling_sessions_before}")


def main() -> None:
    print(f"Cluster ablation: {NODES} stateful nodes, "
          f"{ENTRIES_PER_NODE:,} entries each, "
          f"{LONG_LIVED_CLIENTS} long-lived sessions")
    print(render(run_cluster_comparison()))
