"""Rolling upgrades of a stateful cluster: restart vs Mvedsua (§1.1).

Builds a 3-node key-value cluster behind a round-robin load balancer,
attaches long-lived client sessions, and upgrades it twice:

1. the industry-standard rolling restart — watch the sessions get
   dropped and the per-node state vanish;
2. Mvedsua per node — nothing drops, nothing is lost, and only one node
   at a time pays MVE overhead.

Run with:  python examples/cluster_rolling_upgrade.py
"""

from repro.errors import ConnectionClosed
from repro.cluster import (
    ClusterNode,
    FleetBalancer,
    MvedsuaRollingUpgrade,
    RollingUpgrade,
    Shard,
    ShardMap,
)
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


def build(mvedsua: bool):
    kernel = VirtualKernel()
    nodes = []
    for index in range(3):
        server = KVStoreServer(KVStoreV1(),
                               address=(f"10.1.0.{index + 1}", 7000))
        server.attach(kernel)
        nodes.append(ClusterNode(
            f"node-{index}", kernel, server, PROFILES["kvstore"],
            transforms=kv_transforms() if mvedsua else None))
    # A flat cluster is a one-shard fleet: the balancer round-robins
    # new sessions over the shard's replicas.
    shard = Shard(0, nodes)
    balancer = FleetBalancer(ShardMap([shard]))
    sessions = []
    for index in range(3):
        node = balancer.pick_replica(shard)
        client = VirtualClient(node.kernel, node.address, f"ssh-like-{index}")
        client.command(node.runtime, b"PUT my-session data%d" % index)
        sessions.append((client, node, index))
    return nodes, sessions


def main() -> None:
    print("== rolling restart ==")
    nodes, sessions = build(mvedsua=False)
    summary = RollingUpgrade(nodes).upgrade(KVStoreV2, SECOND)
    print(f"  upgraded to: { {n.version_name for n in nodes} }")
    print(f"  sessions dropped: {summary.total_sessions_dropped}")
    client, node, index = sessions[0]
    try:
        reply = client.command(node.runtime, b"GET my-session",
                               now=600 * SECOND)
        print(f"  session state after upgrade: {reply!r}  <- gone")
    except ConnectionClosed:
        print("  session connection: forcibly closed during the drain")

    print("\n== Mvedsua rolling upgrade ==")
    nodes, sessions = build(mvedsua=True)
    upgrade = MvedsuaRollingUpgrade(nodes, rules=kv_rules())
    summary = upgrade.upgrade(KVStoreV2, SECOND)
    print(f"  upgraded to: { {n.version_name for n in nodes} }")
    print(f"  sessions dropped: {summary.total_sessions_dropped}")
    for client, node, index in sessions:
        reply = client.command(node.runtime, b"GET my-session",
                               now=600 * SECOND)
        print(f"  {client.name}: session state = {reply!r}")
    worst = max(r.leader_pause_ns for r in summary.records)
    print(f"  worst per-node service pause: {worst / 1e6:.0f} ms")


if __name__ == "__main__":
    main()
