"""Event-queue engine with an integer-nanosecond virtual clock.

Using integers keeps the simulation exactly deterministic: there is no
floating-point drift, and event ordering ties are broken by a monotonically
increasing sequence number (insertion order).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sites import OBS

#: Number of virtual nanoseconds per virtual second.
NANOS_PER_SECOND = 1_000_000_000

#: One virtual microsecond, in clock units.
MICROSECOND = 1_000

#: One virtual millisecond, in clock units.
MILLISECOND = 1_000_000

#: One virtual second, in clock units.
SECOND = NANOS_PER_SECOND


def seconds_to_ns(seconds: float) -> int:
    """Convert a duration in seconds to integer nanoseconds."""
    return int(round(seconds * NANOS_PER_SECOND))


def ns_to_seconds(nanos: int) -> float:
    """Convert integer nanoseconds to (float) seconds, for reporting."""
    return nanos / NANOS_PER_SECOND


class Engine:
    """A deterministic discrete-event scheduler.

    Events are ``(time, seq, callback)`` triples in a binary heap.  Two
    events scheduled for the same instant fire in insertion order, which is
    what makes whole-system runs reproducible.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._running = False

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def schedule_at(self, when: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < now {self._now}"
            )
        heapq.heappush(self._queue, (when, self._seq, callback))
        self._seq += 1

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule_at(self._now + delay, callback)

    def advance_to(self, when: int) -> None:
        """Jump the clock forward without running events.

        Only legal when the queue holds no event earlier than ``when``;
        used by runtimes that compute completion times analytically.
        """
        if when < self._now:
            raise SimulationError("cannot move the clock backwards")
        if self._queue and self._queue[0][0] < when:
            raise SimulationError(
                "advance_to would skip over pending events"
            )
        self._now = when

    def run(self, until: Optional[int] = None) -> int:
        """Run events in order until the queue drains or ``until`` passes.

        Returns the final virtual time.  With ``until`` set, events at
        exactly ``until`` still fire; later ones stay queued and the clock
        stops at ``until``.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        try:
            while self._queue:
                when, _seq, callback = self._queue[0]
                if until is not None and when > until:
                    break
                heapq.heappop(self._queue)
                self._now = when
                chaos = OBS.chaos
                if chaos is not None:
                    fault = chaos.fire("sim.event", when=when)
                    if fault is not None:
                        if fault.kind == "drop":
                            continue
                        # "delay": requeue the event later; ties broken
                        # by a fresh sequence number as usual.
                        delay = max(1, int(fault.param.get(
                            "delay_ns", MILLISECOND)))
                        heapq.heappush(
                            self._queue, (when + delay, self._seq, callback))
                        self._seq += 1
                        continue
                tracer = OBS.tracer
                if tracer is not None:
                    tracer.on_sim_event(when, len(self._queue))
                callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
