"""Chaos campaign scenarios: full-stack runs the grid sweeps.

The flagship scenario drives the paper's running example — the typed
key-value store of Figure 1 — through a complete Mvedsua update
lifecycle (serve → update → catch-up → promote → finalize) with three
closed-loop clients, restricting traffic to the version-neutral
``PUT``/``GET`` subset so one invariant checker covers runs that end on
either version.

The scenario is chaos-*aware*, not chaos-*dependent*: it arms an
installed injector with the server's fd domain (so client syscalls are
never faulted) and runs identically when none is installed — that
fault-free run is the campaign's golden baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import deploy
from repro.chaos.invariants import ClientObservation
from repro.core import Stage, UpdateTimeline
from repro.errors import KernelError, ServerCrash
from repro.net.ring_wire import RingLink
from repro.servers.kvstore import KVStoreV2
from repro.sim.engine import SECOND
from repro.sites import OBS
from repro.workloads import VirtualClient

#: Ring capacity for the scenario — small enough that forced stalls and
#: batched publishes exercise the back-pressure path.
RING_CAPACITY = 32

#: Virtual times of the lifecycle steps.
UPDATE_AT = 5 * SECOND
PROMOTE_AT = 10 * SECOND
FINALIZE_AT = 15 * SECOND

#: The link the ``kvstore-distributed`` scenario crosses: a small
#: window so frames queue under load, and a partition budget a
#: sustained drop fault (40 ms retransmit per frame) exhausts within
#: the catch-up phase — which is what makes demotion-on-timeout a
#: reachable campaign outcome.
CHAOS_RING_LINK = RingLink(latency_ns=200_000, window=4,
                           demote_timeout_ns=250_000_000,
                           retransmit_ns=40_000_000)

#: The client script: (client, command, at).  Version-neutral commands
#: only; c2 connects mid-run (just before its first command) so accept
#: faults have a landing site in every stage.
SCRIPT: Tuple[Tuple[str, bytes, int], ...] = (
    # Phase A: the old version serving alone.
    ("c0", b"PUT alpha one", 1_000_000_000),
    ("c1", b"PUT beta two", 1_100_000_000),
    ("c0", b"GET alpha", 1_200_000_000),
    ("c1", b"GET gamma", 1_300_000_000),
    ("c0", b"PUT gamma three", 1_400_000_000),
    ("c1", b"GET beta", 1_500_000_000),
    # -- update requested at UPDATE_AT --
    # Phase B: outdated leader serving, follower catching up.
    ("c0", b"GET alpha", 6_000_000_000),
    ("c1", b"PUT delta four", 6_200_000_000),
    ("c0", b"GET delta", 6_400_000_000),
    ("c2", b"PUT epsilon five", 7_000_000_000),
    ("c2", b"GET epsilon", 7_200_000_000),
    ("c1", b"GET gamma", 7_400_000_000),
    ("c0", b"PUT beta nine", 7_600_000_000),
    # -- promote at PROMOTE_AT --
    # Phase C: updated leader serving, old version mirroring.
    ("c0", b"PUT zeta six", 11_000_000_000),
    ("c1", b"GET zeta", 11_200_000_000),
    ("c2", b"GET alpha", 11_400_000_000),
    ("c0", b"GET beta", 11_600_000_000),
    # -- finalize at FINALIZE_AT --
    # Phase D: the new version alone.
    ("c1", b"PUT eta seven", 16_000_000_000),
    ("c2", b"GET eta", 16_200_000_000),
    ("c0", b"GET alpha", 16_400_000_000),
    ("c1", b"GET delta", 16_600_000_000),
)


class BuggyKVStoreV2(KVStoreV2):
    """A 2.0 build with a read-path bug, for ``dsu.update`` faults.

    Plays the role Redis revision 7fb16bac plays in §6.2's E1: the
    update installs cleanly, then the new code answers ``GET`` wrongly —
    which the divergence check catches during catch-up.
    """

    def handle(self, heap, request: bytes, session=None,
               io=None) -> List[bytes]:
        responses = super().handle(heap, request, session, io=io)
        if request.startswith(b"GET ") and responses \
                and responses[0].endswith(b"\r\n") \
                and not responses[0].startswith((b"+", b"-")):
            return [b"!" + responses[0]]
        return responses


def buggy_v2_factory(version: Any) -> Any:
    """``dsu.update``/``buggy-version`` factory for the kvstore grid."""
    return BuggyKVStoreV2()


@dataclass
class ChaosRunResult:
    """Everything one scenario run exposes to classification."""

    observations: List[ClientObservation] = field(default_factory=list)
    final_table: Dict[str, str] = field(default_factory=dict)
    final_version: str = ""
    update_ok: bool = False
    update_reason: str = "not-attempted"
    #: The update's closed timeline, which says how it ended (None: no
    #: update ended).
    timeline: Optional[UpdateTimeline] = None
    service_crashed: bool = False
    events: List[Tuple[int, str, str]] = field(default_factory=list)
    injections: List[Dict[str, Any]] = field(default_factory=list)
    forensics: Optional[Dict[str, Any]] = None

    def replies(self) -> List[Optional[bytes]]:
        return [obs.reply for obs in self.observations]


def _semantic_table(server: Any) -> Dict[str, str]:
    """The leader's table reduced to plain key -> value strings, so V1
    and V2 heaps compare directly."""
    table = server.heap.get("table", {})
    out: Dict[str, str] = {}
    for key in sorted(table):
        entry = table[key]
        out[key] = str(entry["val"]) if isinstance(entry, dict) \
            else str(entry)
    return out


def run_kv_update_scenario(distributed: bool = False) -> ChaosRunResult:
    """One full kvstore update lifecycle under whatever chaos injector
    is currently installed (or none — the golden baseline).

    ``distributed=True`` is the ``kvstore-distributed`` campaign
    scenario: the same lifecycle, but the MVE pair's ring crosses
    :data:`CHAOS_RING_LINK` as ``repro-ring/1`` frames — which is what
    makes the ``fleet.ring`` partition site reachable.
    """
    stack = deploy("kvstore", "1.0", ring_capacity=RING_CAPACITY,
                   ring_link=CHAOS_RING_LINK if distributed else None)
    mvedsua = stack.runtime
    chaos = OBS.chaos
    if chaos is not None:
        chaos.domain_filter = {stack.server.domain}
    result = ChaosRunResult()
    clients: Dict[str, VirtualClient] = {}
    dead: set = set()

    def connect(label: str) -> None:
        try:
            clients[label] = stack.client(label)
        except KernelError:
            dead.add(label)

    def step(label: str, command: bytes, at: int) -> None:
        line = command.decode("latin-1")
        client = clients.get(label)
        if client is None or label in dead:
            result.observations.append(
                ClientObservation(label, line, None))
            return
        try:
            reply = client.command(mvedsua, command, now=at)
        except ServerCrash:
            result.service_crashed = True
            result.observations.append(
                ClientObservation(label, line, None))
            return
        except KernelError:
            dead.add(label)
            result.observations.append(
                ClientObservation(label, line, None))
            return
        result.observations.append(
            ClientObservation(label, line, reply if reply else None))

    connect("c0")
    connect("c1")

    update = None
    for label, command, at in SCRIPT:
        if update is None and at >= UPDATE_AT \
                and not result.service_crashed \
                and mvedsua.stage is Stage.SINGLE_LEADER:
            update = stack.update("2.0", UPDATE_AT)
        if label not in clients and label not in dead:
            connect(label)
        if update is not None and at >= PROMOTE_AT \
                and mvedsua.stage is Stage.OUTDATED_LEADER \
                and not result.service_crashed:
            try:
                mvedsua.promote(PROMOTE_AT)
            except ServerCrash:
                result.service_crashed = True
        if at >= FINALIZE_AT and mvedsua.stage is Stage.UPDATED_LEADER \
                and mvedsua.runtime.in_mve_mode \
                and not result.service_crashed:
            try:
                mvedsua.finalize(FINALIZE_AT)
            except ServerCrash:
                result.service_crashed = True
        step(label, command, at)

    if update is not None:
        result.update_ok = update.ok
        result.update_reason = update.reason
    runtime = mvedsua.runtime
    result.final_table = _semantic_table(runtime.leader.server)
    result.final_version = mvedsua.current_version
    result.timeline = mvedsua.last_outcome()
    result.events = [(event.at, event.kind, event.detail)
                     for event in runtime.events]
    if runtime.last_divergence is not None:
        result.forensics = runtime.last_divergence.forensics
    if chaos is not None:
        result.injections = [injection.as_dict()
                             for injection in chaos.injections]
    return result
