"""Discrete-event simulation core.

The whole reproduction runs in *virtual time*: an integer nanosecond
clock.  Server processes charge CPU time against
:class:`~repro.sim.process.CpuAccount` objects, which model per-core
single-server queues, and completion times follow from those.  The
event-queue :class:`~repro.sim.engine.Engine` runs scheduled callbacks
in time order; no command uses it.
"""

from repro.sim.engine import Engine, NANOS_PER_SECOND, MICROSECOND, MILLISECOND, SECOND, ns_to_seconds, seconds_to_ns
from repro.sim.process import CpuAccount
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "CpuAccount",
    "RngStreams",
    "NANOS_PER_SECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ns_to_seconds",
    "seconds_to_ns",
]
