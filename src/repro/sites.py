"""The one observer slot and the one table of instrumented sites.

Four observers, each installed on its own, watch the stack — the tracer,
the span collector, the chaos injector and the stream recorder
(:mod:`repro.obs.trace`, :mod:`repro.obs.spans`,
:mod:`repro.chaos.injector`, :mod:`repro.replay.recorder`) — and this
module is how all of them are found and what all of them may say.

**The slot.**  :data:`OBS` holds the installed observers, ``None`` each
by default.  Every instrumented site reads it *when it runs*::

    tracer = OBS.tracer
    if tracer is not None:
        tracer.on_kernel("enter", "read", domain_id, fd)

so a deployment built before the observer was installed is watched all
the same, and the disabled path stays one attribute test.  The only way
in is :func:`observing`, which restores what it replaced.

**The table.**  :data:`TABLE` has one :class:`Site` row per instrumented
site: where the hook lives and what it feeds.  The chaos registry
(:data:`repro.chaos.plan.SITES`) and the ``kind`` leaves of the trace
and span shapes are computed from it, ``tests/test_sites.py`` holds it
to the running code and ``tools/check_docs.py`` holds the docs' tables
to it.  It is never consulted per event.

Standard library only: every layer of the stack imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, NamedTuple, Tuple


class _Observers:
    """The installed observers, each None while that hook is off.  No
    slot implies another: spans without a tracer log no trace event, a
    tracer without spans creates no span."""

    __slots__ = ("tracer", "spans", "chaos", "recorder")

    def __init__(self) -> None:
        self.tracer = self.spans = self.chaos = self.recorder = None


#: The slot.  Read its fields at call time; write them only through
#: :func:`observing`.
OBS = _Observers()

_KEEP: Any = object()


@contextmanager
def observing(tracer: Any = _KEEP, spans: Any = _KEEP, chaos: Any = _KEEP,
              recorder: Any = _KEEP) -> Iterator[None]:
    """Install the given observers for the duration of a block.

    A hook that is not named keeps its current value; ``None`` turns it
    off for the block.  Whatever was installed before is back on exit,
    also when the block raises, so blocks nest.
    """
    previous = (OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder)
    if tracer is not _KEEP:
        OBS.tracer = tracer
    if spans is not _KEEP:
        OBS.spans = spans
    if chaos is not _KEEP:
        OBS.chaos = chaos
    if recorder is not _KEEP:
        OBS.recorder = recorder
    try:
        yield
    finally:
        OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder = previous


class Site(NamedTuple):
    """One instrumented site and what it feeds."""

    name: str
    #: The ``layer`` every event and span of this site carries.
    layer: str
    #: ``file.py:Qualified.name`` of the code holding the hook, relative
    #: to ``src/repro``.
    where: str
    #: Chaos fault kinds legal here (``ChaosInjector.fire(name)``).
    faults: Tuple[str, ...] = ()
    #: ``repro-trace/1`` event kinds emitted here.
    events: Tuple[str, ...] = ()
    #: ``repro-span/1`` span kinds recorded here.
    spans: Tuple[str, ...] = ()
    #: ``repro-stream/1`` entry types written here.
    entries: Tuple[str, ...] = ()


#: Every instrumented site.  The rows with ``faults`` are the chaos
#: registry, in the order campaign grids enumerate them.
TABLE: Tuple[Site, ...] = (
    Site("sim.event", "sim", "sim/engine.py:Engine.run",
         faults=("delay", "drop"), events=("sim.event",)),
    # Syscall implementations; only the leader's reach the fault sites.
    Site("kernel.syscall", "kernel", "net/kernel.py:VirtualKernel",
         events=("kernel.enter", "kernel.exit")),
    Site("kernel.read", "kernel", "net/kernel.py:VirtualKernel.read",
         faults=("short-read", "econnreset")),
    Site("kernel.write", "kernel", "net/kernel.py:VirtualKernel.write",
         faults=("short-write", "epipe")),
    Site("kernel.accept", "kernel", "net/kernel.py:VirtualKernel.accept",
         faults=("fd-exhaustion",)),
    Site("kernel.connect", "kernel", "net/kernel.py:VirtualKernel.connect",
         faults=("fd-exhaustion",)),
    # The MVE runtime: leader iterations, follower replay, the ring.
    Site("mve.syscall", "mve", "mve/gateway.py:SyscallGateway._emit",
         events=("syscall",)),
    Site("mve.runtime", "mve", "mve/varan.py:VaranRuntime.log",
         events=("mve.fork", "mve.leader-crash", "mve.divergence",
                 "mve.follower-crash", "mve.follower-terminated",
                 "mve.demote-requested", "mve.promoted",
                 "mve.follower-promoted-after-crash",
                 "mve.ring-partition")),
    Site("mve.leader", "mve",
         "mve/varan.py:VaranRuntime._run_leader_iteration",
         faults=("crash",), spans=("mve.crash-promote",)),
    Site("mve.follower", "mve", "mve/varan.py:VaranRuntime._replay_one",
         faults=("crash", "corrupt-record"),
         events=("rule.fired", "ring.replay", "divergence.check",
                 "divergence.forensics"),
         spans=("mve.divergence", "mve.demotion")),
    Site("mve.ring", "mve", "mve/varan.py:VaranRuntime._publish_to_lane",
         faults=("stall",), events=("ring.stall", "ring.publish"),
         spans=("mve.ring-stall",)),
    Site("mve.promote", "mve", "mve/varan.py:VaranRuntime.promote",
         events=("control.promote",), spans=("mve.promote",)),
    # The recorder's tap: leader iterations, forks, promotions.
    Site("stream.record", "replay",
         "mve/varan.py:VaranRuntime._run_leader_iteration",
         events=("stream.record",), entries=("iter", "fork", "control")),
    # The update lifecycle.
    Site("dsu.update", "dsu", "core/mvedsua.py:Mvedsua.request_update",
         faults=("buggy-version",),
         events=("dsu.request", "dsu.failed", "dsu.quiesce", "dsu.xform",
                 "dsu.applied", "dsu.resume"),
         spans=("dsu.update", "dsu.quiesce", "dsu.fork", "dsu.xform")),
    Site("dsu.quiesce", "dsu", "dsu/kitsune.py:Kitsune.quiesce",
         faults=("timeout", "delay", "race")),
    Site("dsu.transform", "dsu", "dsu/kitsune.py:Kitsune.transform",
         faults=("exception", "corrupt-heap", "replace")),
    Site("dsu.lifecycle", "dsu", "bench/fluid.py:FluidSim.run",
         events=("dsu.lifecycle",)),
    # Fleet orchestration.
    Site("fleet.round", "fleet",
         "cluster/orchestrator.py:FleetOrchestrator.run_round",
         events=("fleet.round_start", "fleet.round_end"),
         spans=("fleet.round",)),
    Site("fleet.replica", "fleet",
         "cluster/orchestrator.py:FleetOrchestrator._run_slot",
         faults=("crash",), events=("fleet.replica_crash",)),
    Site("fleet.canary", "fleet",
         "cluster/orchestrator.py:FleetOrchestrator._run_slot",
         faults=("divergence",),
         events=("fleet.canary", "fleet.wave", "fleet.demotion",
                 "fleet.rollback", "fleet.promote"),
         spans=("fleet.slot",)),
    Site("fleet.balancer", "fleet",
         "cluster/balancer.py:FleetBalancer.pick_replica",
         faults=("partition",), events=("fleet.partition",)),
    Site("fleet.failover", "fleet",
         "cluster/fleet.py:FleetSession._sticky_replica",
         events=("fleet.failover",)),
    # The replicated ring's wire: one call per repro-ring/1 frame, so
    # only distributed scenarios ever reach it.
    Site("fleet.ring", "net", "mve/distring.py:DistributedRing._transmit",
         faults=("partition-drop", "partition-delay", "partition-reorder"),
         events=("net.ring.frame", "net.ring.resync"), spans=("net.ring",)),
    Site("openloop.arrival", "workload",
         "workloads/openloop.py:OpenLoopGenerator.events",
         faults=("burst", "drop")),
    Site("client.request", "gateway",
         "workloads/client.py:VirtualClient.request", spans=("request",)),
    Site("chaos.inject", "chaos", "chaos/injector.py:ChaosInjector.fire",
         events=("chaos.inject",)),
)


def kinds(column: str) -> Dict[str, Site]:
    """``column`` is ``"events"``, ``"spans"`` or ``"entries"``: each
    kind the table declares there -> the row declaring it."""
    return {kind: site for site in TABLE for kind in getattr(site, column)}
