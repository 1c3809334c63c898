"""Connection routing across a fleet's shards."""

from __future__ import annotations

from typing import Dict

from repro.cluster.node import ClusterNode
from repro.cluster.shard import Shard, ShardMap
from repro.errors import KernelError
from repro.sites import OBS


class FleetBalancer:
    """Shard-sticky, health- and demotion-aware routing for a fleet.

    Commands hash to a shard via the :class:`~repro.cluster.shard.
    ShardMap`; within the shard, new placements round-robin over the
    *stable* replica list, skipping replicas that are draining, demoted,
    or failed.  The cursor walks the stable list rather than indexing
    the filtered candidates: otherwise one replica entering or leaving
    drain would make the same cursor value name a different replica and
    reshuffle every later assignment.  Existing sessions stick to their
    replica — a draining or demoted replica keeps serving the sessions
    it already has; only a *failed* replica forces a failover.  A flat
    cluster is a one-shard fleet: ``Shard(0, nodes)`` in a
    :class:`~repro.cluster.shard.ShardMap`.

    A ``fleet.balancer``/``partition`` chaos fault makes the replica a
    pick would have chosen temporarily unreachable, forcing the pick to
    route around it (the replica itself keeps serving its sessions —
    the partition is between balancer and replica, not replica and
    world).
    """

    def __init__(self, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        self._cursors: Dict[int, int] = {}
        #: Sessions re-homed after their sticky replica failed.
        self.failovers = 0
        #: Picks the partition fault diverted to another replica.
        self.partitions = 0

    def shard_for(self, key: str) -> Shard:
        """The shard responsible for ``key``."""
        return self.shard_map.shard_for(key)

    def pick_replica(self, shard: Shard, now: int = 0) -> ClusterNode:
        """Choose a replica of ``shard`` for a new session placement."""
        if not any(node.accepting_new_connections()
                   for node in shard.nodes):
            raise KernelError(f"shard {shard.index} has no replica "
                              f"accepting connections")
        chaos = OBS.chaos
        cursor = self._cursors.get(shard.index, 0)
        for _ in range(2 * len(shard.nodes)):
            node = shard.nodes[cursor % len(shard.nodes)]
            cursor += 1
            if not node.accepting_new_connections():
                continue
            if chaos is not None:
                fault = chaos.fire("fleet.balancer", shard=shard.index,
                                   node=node.name, when=now)
                if fault is not None and fault.kind == "partition":
                    self.partitions += 1
                    tracer = OBS.tracer
                    if tracer is not None:
                        tracer.emit("fleet.partition", "fleet", at=now,
                                    shard=shard.index, node=node.name)
                    continue
            self._cursors[shard.index] = cursor
            return node
        raise KernelError(f"shard {shard.index} is partitioned from the "
                          f"balancer")
