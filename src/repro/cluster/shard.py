"""Key-hash sharding: fleet topology, replica groups, the shard map.

A fleet is ``shards × replicas_per_shard`` nodes.  Every key hashes to
exactly one :class:`Shard` (CRC-32 modulo the shard count — stable
across runs and Python versions, so fleet reports stay bit-identical);
the shard's replicas jointly own that key range.  Writes fan out to
every healthy replica of the owning shard, which is what lets a session
fail over within the shard without losing an acknowledged write.

:class:`FleetSpec` is the declarative topology — it validates itself,
and the same validators back both the :class:`~repro.cluster.
orchestrator.FleetOrchestrator` (which refuses to drive a malformed
fleet) and mvelint's MVE7xx analyzer (which flags it before deploy).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.node import ClusterNode
from repro.net.ring_wire import RingLink


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a fleet: shard count, replication factor, wave width.

    ``wave_size`` is how many replica *slots* per shard one upgrade wave
    covers.  The orchestrator still serializes within a shard (the
    §1.2 budget: at most one leader-follower pair per shard at a time),
    so the wave width trades upgrade duration against how much of a
    shard is tied up in one wave — which is exactly what MVE701/MVE702
    lint about.

    ``cross_node_pairs`` houses each MVE follower on the shard's *next*
    replica node instead of the leader's own host, which makes the pair
    a distributed system: its ring crosses ``ring_link``, whose
    latency/bandwidth/window/timeout budget must be declared explicitly
    (MVE704 territory — see :meth:`link_problems`).
    """

    shards: int
    replicas_per_shard: int
    wave_size: int = 1
    cross_node_pairs: bool = False
    ring_link: Optional[RingLink] = None

    def shape_problems(self) -> List[str]:
        """Malformed counts (MVE703 territory; empty list means sane)."""
        problems: List[str] = []
        if self.shards < 1:
            problems.append(f"fleet needs at least one shard, "
                            f"got {self.shards}")
        if self.replicas_per_shard < 1:
            problems.append(f"each shard needs at least one replica, "
                            f"got {self.replicas_per_shard}")
        if self.wave_size < 1:
            problems.append(f"upgrade waves need at least one replica "
                            f"slot, got {self.wave_size}")
        return problems

    def drain_problems(self) -> List[str]:
        """Topologies one wave would drain (MVE701 territory)."""
        if self.shape_problems():
            return []
        if self.replicas_per_shard < self.wave_size:
            return [f"upgrade waves span {self.wave_size} replica slots "
                    f"but each shard has only {self.replicas_per_shard} "
                    f"replica(s) — one wave would drain whole shards"]
        return []

    def advisories(self) -> List[str]:
        """Legal-but-risky shapes (MVE702 territory)."""
        if self.shape_problems() or self.drain_problems():
            return []
        if self.replicas_per_shard == self.wave_size:
            return [f"a full wave touches all {self.replicas_per_shard} "
                    f"replica(s) of a shard — no replica stays outside "
                    f"the upgrade"]
        return []

    def link_problems(self) -> List[str]:
        """Cross-node placement without a usable link (MVE704).

        A leader-follower pair split across nodes replicates the ring
        over the network; refusing to declare the link's cost budget
        hides real latency, back-pressure, and partition exposure from
        every downstream report — so the topology is rejected outright.
        """
        problems: List[str] = []
        if self.cross_node_pairs and self.ring_link is None:
            problems.append(
                "cross-node MVE pairs require a declared ring link "
                "budget (latency/bandwidth/window), got none")
        if self.cross_node_pairs and self.replicas_per_shard < 2:
            problems.append(
                "cross-node MVE pairs need a second replica node per "
                f"shard to house the follower, got "
                f"{self.replicas_per_shard}")
        if self.ring_link is not None:
            problems.extend(self.ring_link.problems())
        return problems

    def problems(self) -> List[str]:
        """Everything that must block an orchestrator (empty = usable)."""
        return self.shape_problems() + self.drain_problems() \
            + self.link_problems()

    def waves(self) -> List[Tuple[int, ...]]:
        """Replica indexes per upgrade wave; the canary wave comes first.

        Replica 0 of every shard is the canary.  The remaining indexes
        are chunked ``wave_size`` at a time::

            FleetSpec(3, 3, wave_size=1).waves()  ->  [(0,), (1,), (2,)]
            FleetSpec(2, 5, wave_size=2).waves()  ->  [(0,), (1, 2), (3, 4)]
        """
        plan: List[Tuple[int, ...]] = [(0,)]
        rest = list(range(1, self.replicas_per_shard))
        for start in range(0, len(rest), self.wave_size):
            plan.append(tuple(rest[start:start + self.wave_size]))
        return plan


class Shard:
    """One replica group: the nodes jointly owning one key range."""

    def __init__(self, index: int, nodes: List[ClusterNode]) -> None:
        if not nodes:
            raise ValueError(f"shard {index} has no replicas")
        self.index = index
        self.nodes = list(nodes)
        for replica_index, node in enumerate(self.nodes):
            node.shard_index = index
            node.replica_index = replica_index

    def healthy_nodes(self) -> List[ClusterNode]:
        """Replicas that have not crashed (writes fan out to these)."""
        return [node for node in self.nodes if node.healthy()]

    def mve_pairs(self) -> int:
        """Replicas currently running a leader-follower pair — the
        quantity the orchestrator's per-shard budget caps at one."""
        return sum(1 for node in self.nodes if node.in_mve_mode)


class ShardMap:
    """Stable key-hash routing across a fleet's shards."""

    def __init__(self, shards: List[Shard]) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        self.shards = list(shards)

    def shard_for(self, key: str) -> Shard:
        """The shard owning ``key`` (CRC-32 of the key, modulo)."""
        digest = zlib.crc32(key.encode("utf-8"))
        return self.shards[digest % len(self.shards)]

    def nodes(self) -> List[ClusterNode]:
        """Every node in the fleet, shard-major order."""
        return [node for shard in self.shards for node in shard.nodes]
