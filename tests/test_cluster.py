"""Tests for the cluster substrate and rolling upgrades."""

import pytest

from repro.cluster import (
    ClusterNode,
    FleetBalancer,
    MvedsuaRollingUpgrade,
    NodeStatus,
    RollingUpgrade,
    Shard,
    ShardMap,
)
from repro.errors import KernelError
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    kv_transforms,
)
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


class FlatCluster:
    """A flat cluster as the one-shard fleet it is: ``Shard(0, nodes)``
    routed by :class:`FleetBalancer`."""

    def __init__(self, nodes):
        self.shard = Shard(0, nodes)
        self.nodes = self.shard.nodes
        self.balancer = FleetBalancer(ShardMap([self.shard]))

    def pick(self):
        return self.balancer.pick_replica(self.shard)

    def connect(self, name="client"):
        node = self.pick()
        return VirtualClient(node.kernel, node.address, name), node


def make_cluster(n=3, mvedsua=False):
    kernel = VirtualKernel()
    nodes = []
    for index in range(n):
        server = KVStoreServer(KVStoreV1(),
                               address=("10.0.0.%d" % (index + 1), 7000))
        server.attach(kernel)
        nodes.append(ClusterNode(
            f"node-{index}", kernel, server, PROFILES["kvstore"],
            transforms=kv_transforms() if mvedsua else None))
    return kernel, FlatCluster(nodes)


def seed_cluster(balancer, entries_per_node=50):
    for node in balancer.nodes:
        node.server.heap["table"].update(
            {f"{node.name}-k{i}": "v" for i in range(entries_per_node)})


class TestLoadBalancer:
    """Routing a flat cluster: ``FleetBalancer.pick_replica`` over its
    one shard."""

    def test_round_robin_across_serving_nodes(self):
        _, balancer = make_cluster(3)
        picks = [balancer.pick().name for _ in range(6)]
        assert picks == ["node-0", "node-1", "node-2"] * 2

    def test_draining_node_excluded(self):
        _, balancer = make_cluster(3)
        balancer.nodes[1].status = NodeStatus.DRAINING
        picks = {balancer.pick().name for _ in range(10)}
        assert picks == {"node-0", "node-2"}

    def test_no_serving_nodes_raises(self):
        _, balancer = make_cluster(2)
        for node in balancer.nodes:
            node.status = NodeStatus.RESTARTING
        with pytest.raises(KernelError):
            balancer.pick()

    def test_connect_routes_and_serves(self):
        _, balancer = make_cluster(2)
        client_a, node_a = balancer.connect("a")
        client_b, node_b = balancer.connect("b")
        assert node_a.name != node_b.name
        assert client_a.command(node_a.runtime, b"PUT k v") == b"+OK\r\n"
        # Sessions stick to their node.
        assert node_a.active_sessions() == 1
        assert node_b.active_sessions() == 0


class TestLoadBalancerCursorStability:
    def test_drain_does_not_reshuffle_assignments(self):
        """Regression: the cursor must index the stable node list, not
        the filtered candidate list.  With the old behaviour, draining
        node-0 after one pick made the same cursor value name a
        different node, reshuffling every subsequent assignment
        ([node-2, node-1] instead of [node-1, node-2])."""
        _, balancer = make_cluster(3)
        assert balancer.pick().name == "node-0"
        balancer.nodes[0].status = NodeStatus.DRAINING
        assert [balancer.pick().name for _ in range(2)] \
            == ["node-1", "node-2"]

    def test_resumed_node_rejoins_rotation_in_place(self):
        _, balancer = make_cluster(3)
        balancer.pick()
        balancer.nodes[0].status = NodeStatus.DRAINING
        assert balancer.pick().name == "node-1"
        balancer.nodes[0].status = NodeStatus.SERVING
        # The cursor kept walking the stable ring, so node-2 then
        # node-0 come next — no node is skipped or double-served.
        assert [balancer.pick().name for _ in range(2)] \
            == ["node-2", "node-0"]

    def test_drain_resume_transition_keeps_sessions(self):
        _, balancer = make_cluster(2)
        client, node = balancer.connect()
        node.status = NodeStatus.DRAINING
        assert not node.accepting_new_connections()
        # The drained node still serves its existing session.
        assert client.command(node.runtime, b"PUT k v") == b"+OK\r\n"
        node.status = NodeStatus.SERVING
        assert node.accepting_new_connections()

    def test_demoted_and_failed_statuses(self):
        _, balancer = make_cluster(2)
        node = balancer.nodes[0]
        node.status = NodeStatus.DEMOTED
        assert not node.accepting_new_connections()
        assert node.healthy()
        node.status = NodeStatus.FAILED
        assert not node.accepting_new_connections()
        assert not node.healthy()
        picks = {balancer.pick().name for _ in range(4)}
        assert picks == {"node-1"}


class TestUpgradeSummaryAccounting:
    def test_totals_and_duration(self):
        from repro.cluster.rolling import NodeUpgradeRecord, UpgradeSummary
        summary = UpgradeSummary("synthetic", [
            NodeUpgradeRecord("a", started_at=100, finished_at=400,
                              sessions_dropped=2, state_entries_lost=10),
            NodeUpgradeRecord("b", started_at=400, finished_at=900,
                              sessions_dropped=1, state_entries_lost=0,
                              leader_pause_ns=7),
        ])
        assert summary.total_sessions_dropped == 3
        assert summary.total_state_lost == 10
        assert summary.duration_ns == 800

    def test_empty_summary_is_zero(self):
        from repro.cluster.rolling import UpgradeSummary
        summary = UpgradeSummary("synthetic")
        assert summary.duration_ns == 0
        assert summary.total_sessions_dropped == 0
        assert summary.total_state_lost == 0


class TestRollingRestartUpgrade:
    def test_long_lived_sessions_are_dropped(self):
        _, balancer = make_cluster(2)
        # One long-lived client per node (never closes).
        clients = []
        for _ in range(2):
            client, node = balancer.connect()
            client.command(node.runtime, b"PUT session-key v")
            clients.append(client)
        summary = RollingUpgrade(balancer.nodes).upgrade(KVStoreV2, SECOND)
        assert summary.total_sessions_dropped == 2

    def test_state_is_lost(self):
        _, balancer = make_cluster(2)
        seed_cluster(balancer, entries_per_node=50)
        summary = RollingUpgrade(balancer.nodes).upgrade(KVStoreV2, SECOND)
        assert summary.total_state_lost == 100
        assert summary.all_upgraded_to("2.0", balancer.nodes)

    def test_nodes_upgraded_one_at_a_time(self):
        _, balancer = make_cluster(3)
        summary = RollingUpgrade(balancer.nodes).upgrade(KVStoreV2, SECOND)
        finishes = [record.finished_at for record in summary.records]
        assert finishes == sorted(finishes)
        assert summary.duration_ns > 0

    def test_service_available_throughout(self):
        """While one node drains, others still accept connections."""
        _, balancer = make_cluster(3)
        balancer.nodes[0].status = NodeStatus.DRAINING
        client, node = balancer.connect()
        assert node.name != "node-0"
        assert client.command(node.runtime, b"PUT k v") == b"+OK\r\n"

    def test_closed_sessions_drain_cleanly(self):
        _, balancer = make_cluster(1)
        client, node = balancer.connect()
        client.command(node.runtime, b"PUT k v")
        client.close()
        node.pump(100)  # server observes the EOF before the drain
        summary = RollingUpgrade(balancer.nodes).upgrade(KVStoreV2, SECOND)
        assert summary.total_sessions_dropped == 0


class TestMvedsuaRollingUpgrade:
    def test_no_drops_no_state_loss(self):
        _, balancer = make_cluster(2, mvedsua=True)
        seed_cluster(balancer, entries_per_node=50)
        clients = []
        for _ in range(2):
            client, node = balancer.connect()
            client.command(node.runtime, b"PUT live-key 1")
            clients.append((client, node))
        upgrade = MvedsuaRollingUpgrade(balancer.nodes, rules=kv_rules())
        summary = upgrade.upgrade(KVStoreV2, SECOND)
        assert summary.total_sessions_dropped == 0
        assert summary.total_state_lost == 0
        assert summary.all_upgraded_to("2.0", balancer.nodes)
        # The live sessions still work, with their state intact.
        for client, node in clients:
            assert client.command(node.runtime, b"GET live-key",
                                  now=120 * SECOND) == b"1\r\n"

    def test_leader_pause_is_tiny(self):
        _, balancer = make_cluster(1, mvedsua=True)
        seed_cluster(balancer, entries_per_node=100_000)
        upgrade = MvedsuaRollingUpgrade(balancer.nodes, rules=kv_rules())
        summary = upgrade.upgrade(KVStoreV2, SECOND)
        record = summary.records[0]
        xform_ns = 100_000 * PROFILES["kvstore"].xform_entry_ns
        assert record.leader_pause_ns < xform_ns / 10

    def test_one_node_in_mve_mode_at_a_time(self):
        """The §1.2 mitigation: during a Mvedsua rolling upgrade, at
        most one node pays leader-follower overhead."""
        _, balancer = make_cluster(3, mvedsua=True)
        upgrade = MvedsuaRollingUpgrade(balancer.nodes, rules=kv_rules())
        summary = upgrade.upgrade(KVStoreV2, SECOND)
        # Sequential windows: each node's MVE interval ended before the
        # next node's began.
        for earlier, later in zip(summary.records, summary.records[1:]):
            assert earlier.finished_at <= later.started_at
