"""The deterministic fleet scenario behind ``python -m repro fleet``.

This module assembles the pieces — :class:`~repro.cluster.shard.
ShardMap`, :class:`~repro.cluster.balancer.FleetBalancer`,
:class:`~repro.cluster.orchestrator.FleetOrchestrator` — into a
reproducible end-to-end run: a sharded kvstore fleet serves seeded
client traffic through two upgrade rounds (a buggy 2.0 build the canary
wave demotes and rolls back fleet-wide, then the fixed 2.0 build that
completes), with the chaos invariant checker auditing every
client-visible reply.  The emitted ``repro-fleet/1`` report is
bit-identical across runs with the same seed.

Sessions are *shard-sticky*: each session keeps one connection per
shard, pinned to a replica until that replica fails, at which point the
session fails over within the shard.  Writes fan out to every healthy
replica of the owning shard — that fan-out is what makes failover
lossless, and the per-shard replica-agreement cross-check at the end of
a run is what proves it stayed lossless.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import app
from repro.chaos.invariants import ClientObservation, check_run
from repro.chaos.scenarios import _semantic_table
from repro.cluster.balancer import FleetBalancer
from repro.cluster.node import ClusterNode, NodeStatus
from repro.cluster.orchestrator import (FleetOrchestrator, NODE_OUTCOMES,
                                        ROUND_OUTCOMES)
from repro.cluster.shard import FleetSpec, Shard, ShardMap
from repro.errors import KernelError, ServerCrash
from repro.net.kernel import VirtualKernel
from repro.net.ring_wire import RingLink
from repro.report import (ANY, NAT, POS, ListOf, MapOf, Obj, const, one_of,
                          problems)
from repro.sim.engine import MILLISECOND, SECOND
from repro.sites import OBS
from repro.syscalls.costs import PROFILES
from repro.workloads.client import VirtualClient

#: Schema identifier stamped into every fleet report.
FLEET_SCHEMA = "repro-fleet/1"

#: Prefix of orchestrator validation-probe keys; they are per-node, so
#: they are excluded from cross-replica agreement and the final table.
PROBE_PREFIX = "__probe"

#: Client sessions the scenario's traffic phases spread commands over.
SESSIONS = 4

#: Offered rate of the ``--openloop`` traffic mode.  The closed-loop
#: default paces one command per 100 ms (10/s); the open-loop generator
#: offers 4x that so upgrade-round pauses actually queue arrivals.
OPENLOOP_RATE_PER_SEC = 40.0

#: The link budget ``--distributed`` declares for every leader→follower
#: pair: same-datacenter numbers (0.5 ms one way, 1 GB/s, 8 frames in
#: flight, 250 ms of tolerated partition delay before demotion).
DEFAULT_FLEET_LINK = RingLink()

#: What a ``repro-fleet/1`` report looks like (:mod:`repro.report`);
#: ``distring`` is there only in ``--distributed`` mode.
FLEET_SHAPE = Obj({
    "schema": const(FLEET_SCHEMA),
    "topology": Obj({"shards": POS, "replicas_per_shard": POS,
                     "wave_size": POS}),
    "rounds": ListOf(Obj(
        {"outcome": one_of(ROUND_OUTCOMES)},
        {"records": ListOf(Obj({"outcome": one_of(NODE_OUTCOMES)}))}),
        min_len=1),
    "max_mve_pairs_per_shard": one_of((0, 1)),
    "invariants": Obj({"problems": ListOf(ANY)}),
}, {
    "distring": Obj({
        "link": Obj({"latency_ns": NAT, "bandwidth_bps": NAT,
                     "window": NAT, "demote_timeout_ns": NAT}),
        "wire": MapOf(NAT)}),
})


def build_kv_fleet(spec: FleetSpec) -> Tuple[VirtualKernel, ShardMap,
                                             FleetBalancer]:
    """Stand up a ``shards × replicas`` kvstore fleet on one kernel.

    Node ``s<shard>-r<replica>`` listens on ``10.<shard>.0.<replica+1>``;
    every node runs under its own Mvedsua supervisor.  An installed
    chaos injector is armed with the *server* domains (client syscalls
    are never faulted), same as the campaign scenario.
    """
    problems = spec.problems()
    if problems:
        raise ValueError("unusable fleet topology: " + "; ".join(problems))
    kernel = VirtualKernel()
    kvstore = app("kvstore")
    link = spec.ring_link if spec.cross_node_pairs else None
    shards: List[Shard] = []
    for s in range(spec.shards):
        nodes: List[ClusterNode] = []
        for r in range(spec.replicas_per_shard):
            server = kvstore.server("1.0",
                                    address=(f"10.{s}.0.{r + 1}", 7000))
            server.attach(kernel)
            nodes.append(ClusterNode(f"s{s}-r{r}", kernel, server,
                                     PROFILES[server.profile_name],
                                     transforms=kvstore.transforms,
                                     ring_link=link))
        shards.append(Shard(s, nodes))
    shard_map = ShardMap(shards)
    chaos = OBS.chaos
    if chaos is not None:
        chaos.domain_filter = {node.server.domain
                               for node in shard_map.nodes()}
    return kernel, shard_map, FleetBalancer(shard_map)


class FleetSession:
    """One client session routed by the fleet balancer.

    A session is the fleet analogue of the campaign's closed-loop
    client: it records every exchange as a
    :class:`~repro.chaos.invariants.ClientObservation` so the kvstore
    invariant can audit the stream for gaps and lost acknowledged
    writes — including across a replica failover.
    """

    def __init__(self, name: str, balancer: FleetBalancer,
                 observations: List[ClientObservation]) -> None:
        self.name = name
        self.balancer = balancer
        self.observations = observations
        self._conns: Dict[str, VirtualClient] = {}
        self._sticky: Dict[int, ClusterNode] = {}

    def _client(self, node: ClusterNode) -> VirtualClient:
        client = self._conns.get(node.name)
        if client is None:
            client = VirtualClient(node.kernel, node.address,
                                   f"{self.name}@{node.name}")
            self._conns[node.name] = client
        return client

    def _mark_failed(self, node: ClusterNode) -> None:
        node.status = NodeStatus.FAILED
        self._conns.pop(node.name, None)
        for shard_index in [index for index, sticky
                            in self._sticky.items() if sticky is node]:
            del self._sticky[shard_index]

    def _sticky_replica(self, shard, now: int) -> ClusterNode:
        sticky = self._sticky.get(shard.index)
        if sticky is not None and sticky.healthy():
            return sticky
        node = self.balancer.pick_replica(shard, now)
        if sticky is not None:
            # The pinned replica died; the session re-homes within the
            # shard (the acked writes are safe — they fanned out).
            self.balancer.failovers += 1
            tracer = OBS.tracer
            if tracer is not None:
                tracer.emit("fleet.failover", "fleet", at=now,
                            shard=shard.index, session=self.name,
                            node=node.name)
        self._sticky[shard.index] = node
        return node

    def _issue(self, node: ClusterNode, line: str,
               now: int) -> Optional[bytes]:
        """One request to one replica; ``None`` means the replica
        failed mid-exchange (and is marked failed)."""
        try:
            reply = self._client(node).command(node.runtime,
                                               line.encode("latin-1"),
                                               now=now)
        except (KernelError, ServerCrash):
            self._mark_failed(node)
            return None
        return reply if reply else None

    def command(self, line: str, now: int) -> Optional[bytes]:
        """Route one ``PUT``/``GET`` command and record the exchange."""
        key = line.split()[1]
        shard = self.balancer.shard_for(key)
        reply: Optional[bytes] = None
        try:
            sticky = self._sticky_replica(shard, now)
        except KernelError:
            self.observations.append(
                ClientObservation(self.name, line, None))
            return None
        if line.startswith("PUT "):
            # Fan the write out to the other healthy replicas first so
            # the acknowledgement below really means "replicated".
            for peer in shard.healthy_nodes():
                if peer is not sticky:
                    self._issue(peer, line, now)
        reply = self._issue(sticky, line, now)
        if reply is None and not sticky.healthy():
            # One retry on a fresh replica of the same shard.
            try:
                sticky = self._sticky_replica(shard, now)
                reply = self._issue(sticky, line, now)
            except KernelError:
                reply = None
        self.observations.append(
            ClientObservation(self.name, line, reply))
        return reply


def _merged_final_table(shard_map: ShardMap) -> Tuple[Dict[str, str],
                                                      List[str]]:
    """The fleet's semantic table plus replica-agreement problems.

    Each shard contributes the keys it owns, read from its first
    healthy replica; every other healthy replica must agree on those
    keys (probe keys excluded — they are deliberately per-node).
    """
    merged: Dict[str, str] = {}
    problems: List[str] = []
    for shard in shard_map.shards:
        healthy = shard.healthy_nodes()
        if not healthy:
            problems.append(f"shard {shard.index} has no healthy replica")
            continue
        tables = [(node, _semantic_table(node.current_server))
                  for node in healthy]
        _, authoritative = tables[0]
        for key, value in authoritative.items():
            if key.startswith(PROBE_PREFIX):
                continue
            if shard_map.shard_for(key) is not shard:
                continue
            merged[key] = value
            for node, table in tables[1:]:
                if table.get(key) != value:
                    problems.append(
                        f"replica disagreement on {key!r} in shard "
                        f"{shard.index}: {node.name} has "
                        f"{table.get(key)!r}, expected {value!r}")
    return merged, problems


def _pair_placement(spec: FleetSpec, shard_map: ShardMap) -> Dict[str, str]:
    """Which node houses each leader's follower: the shard's next
    replica, round-robin, so no node hosts two follower processes."""
    placement: Dict[str, str] = {}
    for shard in shard_map.shards:
        n = len(shard.nodes)
        for node in shard.nodes:
            peer = shard.nodes[(node.replica_index + 1) % n]
            placement[node.name] = peer.name
    return placement


def fleet_spec(shards: int, replicas: int, *,
               distributed: bool = False) -> FleetSpec:
    """The topology :func:`run_fleet_scenario` stands up."""
    return FleetSpec(shards, replicas, wave_size=1,
                     cross_node_pairs=distributed,
                     ring_link=DEFAULT_FLEET_LINK if distributed else None)


def run_fleet_scenario(scenario: str = "canary-kvstore", seed: int = 1, *,
                       shards: int = 3, replicas: int = 3,
                       commands: int = 36,
                       openloop: bool = False,
                       distributed: bool = False) -> Dict[str, Any]:
    """Run the canary-upgrade fleet scenario; returns the report dict.

    Three traffic phases bracket two upgrade rounds: a buggy 2.0 build
    whose canaries all diverge (round outcome ``rolled-back`` — the
    fleet stays on 1.0), then the fixed 2.0 build (``completed``).
    Everything is driven from ``random.Random(seed)`` and virtual time,
    so the report is bit-identical across runs.

    ``openloop=True`` replaces the fixed 100 ms command pacing with
    Poisson arrivals and Zipf-popular GET keys from dedicated
    :mod:`repro.sim.rng` streams (the closed-loop rng sequence is
    untouched, so the default report stays byte-identical).

    ``distributed=True`` houses each MVE follower on the shard's next
    replica node behind :data:`DEFAULT_FLEET_LINK`: every pair's ring
    crosses the link as ``repro-ring/1`` frames, and the report grows a
    ``distring`` section with the wire telemetry (again, only in that
    mode — the default report stays byte-identical).
    """
    spec = fleet_spec(shards, replicas, distributed=distributed)
    _, shard_map, balancer = build_kv_fleet(spec)
    kvstore = app("kvstore")
    orchestrator = FleetOrchestrator(balancer, spec,
                                     rules=kvstore.rules_for("1.0", "2.0"))
    rng = random.Random(seed)
    observations: List[ClientObservation] = []
    pool = [FleetSession(f"s{i}", balancer, observations)
            for i in range(SESSIONS)]
    known_keys: List[str] = []
    next_key = [0]
    if openloop:
        from repro.sim.rng import RngStreams
        from repro.workloads.arrivals import PoissonArrivals
        from repro.workloads.keyspace import ZipfKeys
        streams = RngStreams(seed)
        arrival_rng = streams.stream("fleet.openloop.arrivals")
        key_rng = streams.stream("fleet.openloop.keys")
        arrivals = PoissonArrivals(OPENLOOP_RATE_PER_SEC)
        # Rank 0 (most popular) maps onto the oldest known key; the
        # modulus keeps the rank meaningful while the key set grows.
        zipf = ZipfKeys(256, exponent=1.1)

    def traffic(t: int, count: int) -> int:
        times = (list(arrivals.times(arrival_rng, count, start_ns=t))
                 if openloop else None)
        for n in range(count):
            session = pool[n % len(pool)]
            at = times[n] if openloop else t
            if known_keys and rng.random() < 0.4:
                if openloop:
                    key = known_keys[zipf.sample(key_rng)
                                     % len(known_keys)]
                else:
                    key = rng.choice(known_keys)
                line = f"GET {key}"
            else:
                key = f"{session.name}-k{next_key[0]}"
                next_key[0] += 1
                line = f"PUT {key} v{next_key[0]}"
                known_keys.append(key)
            session.command(line, at)
            if not openloop:
                t += 100 * MILLISECOND
        return times[-1] + 1 if openloop and times else t

    phase = max(1, commands // 3)
    t = SECOND
    t = traffic(t, phase)
    round1 = orchestrator.run_round(partial(kvstore.version, "2.0-buggy"),
                                    t, label="2.0-buggy")
    t = max(t, round1.finished_at) + 100 * MILLISECOND
    t = traffic(t, phase)
    round2 = orchestrator.run_round(partial(kvstore.version, "2.0"),
                                    t, label="2.0")
    t = max(t, round2.finished_at) + 100 * MILLISECOND
    t = traffic(t, max(1, commands - 2 * phase))

    final_table, agreement_problems = _merged_final_table(shard_map)
    problems = check_run(observations, final_table) + agreement_problems
    syscalls = sum(node.runtime.runtime.total_syscalls
                   for node in shard_map.nodes())
    chaos = OBS.chaos
    report: Dict[str, Any] = {
        "schema": FLEET_SCHEMA,
        "scenario": scenario,
        "seed": seed,
        "topology": {
            "shards": spec.shards,
            "replicas_per_shard": spec.replicas_per_shard,
            "wave_size": spec.wave_size,
            "nodes": [node.name for node in shard_map.nodes()],
        },
        "rounds": [round1.as_dict(), round2.as_dict()],
        "observations": [obs.as_dict() for obs in observations],
        "invariants": {
            "problems": problems,
            "checked_observations": len(observations),
        },
        "final_versions": {node.name: node.version_name
                           for node in shard_map.nodes()},
        "max_mve_pairs_per_shard": orchestrator.max_mve_pairs_per_shard,
        "rollbacks": orchestrator.rollbacks,
        "failovers": balancer.failovers,
        "partitions": balancer.partitions,
        "syscalls": syscalls,
        "injections": ([injection.as_dict()
                        for injection in chaos.injections]
                       if chaos is not None else []),
    }
    if openloop:
        # Added only in open-loop mode: the default report must stay
        # byte-identical to earlier releases.
        report["traffic"] = {
            "mode": "open-loop",
            "process": "poisson",
            "rate_per_sec": OPENLOOP_RATE_PER_SEC,
            "key_distribution": "zipf",
        }
    if distributed:
        # Added only in distributed mode, for the same reason.
        # Every counter sums across the pairs; the watermark is a max.
        wire: Dict[str, int] = {}
        ring_stalls = 0
        for node in shard_map.nodes():
            runtime = node.runtime.runtime
            ring_stalls += runtime.ring_stalls
            for key, value in runtime.ring.stats().items():
                wire[key] = (max(wire.get(key, 0), value)
                             if key == "inflight_high_watermark"
                             else wire.get(key, 0) + value)
        report["distring"] = {
            "link": spec.ring_link.as_dict(),
            "pairs": _pair_placement(spec, shard_map),
            "ring_stalls": ring_stalls,
            "wire": wire,
        }
    return report


def validate_report(payload: Any) -> List[str]:
    """Problems with a ``repro-fleet/1`` report (empty = valid)."""
    return problems(payload, FLEET_SHAPE)
