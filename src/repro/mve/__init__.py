"""Multi-Version Execution — the Varan analogue.

One process is the *leader*: it executes syscalls against the (virtual)
kernel and registers each on a shared ring buffer.  *Followers* replay the
buffer: their own syscalls are matched against the leader's (after
programmer-supplied rewrite rules) and they take results from the buffer
instead of the kernel.  A mismatch is a *divergence*.

Layout:

* :mod:`repro.mve.ring_buffer` — the bounded buffer with back-pressure.
* :mod:`repro.mve.events` — non-syscall control events (promotion).
* :mod:`repro.mve.dsl` — rewrite rules and the textual rule DSL.
* :mod:`repro.mve.gateway` — leader/follower syscall gateways.
* :mod:`repro.mve.divergence` — divergence detection and reporting.
* :mod:`repro.mve.varan` — the runtime: a leader and its follower lanes
  (fork, replay, promote, rollback); the pair is the one-lane case.
"""

from repro.mve.ring_buffer import RingBuffer, RingEntry
from repro.mve.events import ControlEvent, ControlKind
from repro.mve.varan import ManagedProcess, VaranRuntime

__all__ = [
    "RingBuffer",
    "RingEntry",
    "ControlEvent",
    "ControlKind",
    "ManagedProcess",
    "VaranRuntime",
]
