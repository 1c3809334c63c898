"""A cluster substrate: nodes, sharding, balancing, fleet orchestration.

The paper's introduction (§1.1) frames Mvedsua against the
industry-standard *rolling upgrade*: drain a node, restart it on the new
version, repeat.  That works for stateless nodes but drops per-node state
and stalls on long-lived sessions.  This package reproduces the argument
quantitatively, then scales it out to a sharded, replicated fleet:

* :mod:`repro.cluster.node` — one cluster node wrapping a server
  deployment (native or Mvedsua-supervised).
* :mod:`repro.cluster.balancer` — :class:`FleetBalancer`, the one
  router: it steers new clients away from draining, demoted, or failed
  nodes.  A flat cluster is a one-shard fleet (``Shard(0, nodes)``).
* :mod:`repro.cluster.rolling` — the rolling-upgrade loop over a node
  list (drain / restart / resume), and the Mvedsua alternative that
  overrides only its per-node step to update each node in place — which
  also implements the paper's §1.2 note that MVE overhead "can be
  further mitigated by using rolling upgrades": only one node at a time
  runs in leader-follower mode.
* :mod:`repro.cluster.shard` — key-hash sharding: the declarative
  :class:`FleetSpec` topology, per-shard replica groups, the stable
  :class:`ShardMap`.
* :mod:`repro.cluster.orchestrator` — canary-staged fleet upgrades
  under the per-shard one-pair MVE budget, with fleet-wide rollback on
  a canary demotion.
* :mod:`repro.cluster.fleet` — the deterministic ``repro-fleet/1``
  scenario behind ``python -m repro fleet`` (see ``docs/cluster.md``).
"""

from repro.cluster.node import ClusterNode, NodeStatus
from repro.cluster.balancer import FleetBalancer
from repro.cluster.orchestrator import (
    FleetBudgetError,
    FleetNodeRecord,
    FleetOrchestrator,
    FleetRoundReport,
)
from repro.cluster.rolling import (
    MvedsuaRollingUpgrade,
    RollingUpgrade,
    UpgradeSummary,
)
from repro.cluster.shard import FleetSpec, Shard, ShardMap

__all__ = [
    "ClusterNode",
    "NodeStatus",
    "FleetBalancer",
    "FleetBudgetError",
    "FleetNodeRecord",
    "FleetOrchestrator",
    "FleetRoundReport",
    "FleetSpec",
    "RollingUpgrade",
    "MvedsuaRollingUpgrade",
    "Shard",
    "ShardMap",
    "UpgradeSummary",
]
