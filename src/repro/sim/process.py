"""Per-core CPU accounting.

Each server process (and each worker thread inside a multi-threaded server)
owns a :class:`CpuAccount`.  Work arriving at virtual time ``t`` starts at
``max(t, busy_until)`` — a single-server FIFO queue — and pushes
``busy_until`` forward by its cost.  This is how request queueing, update
pauses, and ring-buffer back-pressure all turn into measurable latency.
"""

from __future__ import annotations

from repro.errors import SimulationError


class CpuAccount:
    """Models one core's availability as a ``busy_until`` horizon."""

    def __init__(self, name: str = "cpu") -> None:
        self.name = name
        #: Virtual time at which this core next becomes idle.
        self.busy_until = 0
        #: Cumulative busy nanoseconds, for utilisation reporting.
        self.total_busy = 0

    def charge(self, arrival: int, cost: int) -> int:
        """Enqueue ``cost`` nanoseconds of work arriving at ``arrival``.

        Work starts at ``max(arrival, busy_until)``.  Returns the
        completion time.
        """
        if cost < 0:
            raise SimulationError(f"negative CPU cost: {cost}")
        busy = self.busy_until
        done = (busy if busy > arrival else arrival) + cost
        self.busy_until = done
        self.total_busy += cost
        return done

    def block_until(self, when: int) -> None:
        """Stall the core (not counted as busy work) until ``when``.

        Used when the MVE leader blocks on a full ring buffer: the core is
        unavailable but not executing.
        """
        if when > self.busy_until:
            self.busy_until = when

    def fork(self, name: str, at: int) -> "CpuAccount":
        """Create a new core whose availability starts at ``at``."""
        child = CpuAccount(name)
        child.busy_until = at
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CpuAccount({self.name!r}, busy_until={self.busy_until})"
