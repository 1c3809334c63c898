"""The shared ring buffer between leader and followers.

The leader appends one entry per intercepted syscall; followers consume in
FIFO order.  The buffer is bounded: when it fills, the leader *blocks*
until the follower frees a slot — the mechanism behind Figure 7, where a
2^10-entry buffer turns a background update into a multi-second service
pause while a 2^24-entry buffer masks it entirely.

Entries carry their produce timestamp so replay can respect causality
(a follower cannot consume an entry before it was produced).
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import (Deque, Iterator, List, NamedTuple, Optional, Sequence,
                    Union)

from repro.errors import SimulationError
from repro.mve.events import ControlEvent
from repro.syscalls.model import SyscallRecord

#: What one slot can hold.
Payload = Union[SyscallRecord, ControlEvent]


class RingEntry(NamedTuple):
    """One occupied slot (immutable, tuple-backed like the records)."""

    payload: Payload
    produced_at: int
    sequence: int


class RingBuffer:
    """Bounded FIFO with producer back-pressure.

    ``push`` raises :class:`BufferFull` rather than blocking; the MVE
    runtime asks :meth:`free_slots` first, advances the follower far
    enough to free a slot, and retries — that dance is what converts a
    slow follower into leader latency.

    This class is the whole ring contract the runtime drives.  The
    virtual-time half (:meth:`advance`, :meth:`next_free_at`,
    :meth:`resync`, :attr:`partition_timed_out`) is inert for an
    in-memory ring; :class:`~repro.mve.distring.DistributedRing`
    overrides it with the link's behaviour.
    """

    #: True once a link-backed ring has exhausted its partition budget
    #: (the runtime then demotes the follower); never for a local ring.
    partition_timed_out = False

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"ring buffer capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: Deque[RingEntry] = deque()
        self._produced = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def produced_total(self) -> int:
        """Entries pushed over the buffer's lifetime."""
        return self._produced

    def is_full(self) -> bool:
        """True when a push would block the leader."""
        return len(self._entries) >= self.capacity

    def free_slots(self) -> int:
        """Slots a batch push could fill right now."""
        return self.capacity - len(self._entries)

    def is_empty(self) -> bool:
        """True when the follower has fully caught up."""
        return not self._entries

    def push(self, payload: Payload, produced_at: int) -> RingEntry:
        """Append an entry; raises :class:`BufferFull` when at capacity."""
        if self.is_full():
            raise BufferFull(self.capacity)
        entry = RingEntry(payload, produced_at, self._produced)
        self._entries.append(entry)
        self._produced += 1
        self.high_watermark = max(self.high_watermark, len(self._entries))
        return entry

    def push_many(self, payloads: Sequence[Payload],
                  produced_at: int) -> List[RingEntry]:
        """Append a batch atomically, all stamped with ``produced_at``.

        Raises :class:`BufferFull` — pushing *nothing* — when the batch
        does not fit; the caller chunks to :meth:`free_slots` and
        interleaves follower replay, exactly like single-entry
        back-pressure but one call per burst instead of per record.
        """
        if len(payloads) > self.capacity - len(self._entries):
            raise BufferFull(self.capacity)
        sequence = self._produced
        # RingEntry(payload, produced_at, sequence + offset) per payload,
        # built without a Python frame each.
        entries = list(map(tuple.__new__, repeat(RingEntry), zip(
            payloads, repeat(produced_at),
            range(sequence, sequence + len(payloads)))))
        self._entries.extend(entries)
        self._produced = sequence + len(entries)
        if len(self._entries) > self.high_watermark:
            self.high_watermark = len(self._entries)
        return entries

    def peek(self, index: int = 0) -> Optional[RingEntry]:
        """Look at the ``index``-th unconsumed entry without removing it."""
        if index < len(self._entries):
            return self._entries[index]
        return None

    def pop(self) -> RingEntry:
        """Consume the oldest entry."""
        if not self._entries:
            raise SimulationError("pop from empty ring buffer")
        return self._entries.popleft()

    def pop_many(self, count: int) -> List[RingEntry]:
        """Consume the ``count`` oldest entries in one call."""
        if count > len(self._entries):
            raise SimulationError(
                f"pop_many({count}) from ring buffer holding "
                f"{len(self._entries)} entries")
        return list(map(deque.popleft, repeat(self._entries, count)))

    def clear(self) -> None:
        """Drop all entries (used when a follower is terminated)."""
        self._entries.clear()

    def __iter__(self) -> Iterator[RingEntry]:
        """The unconsumed entries, oldest first."""
        return iter(self._entries)

    def advance(self, at: int) -> None:
        """Move ring time forward; a local ring keeps no clock."""

    def next_free_at(self) -> Optional[int]:
        """When a slot frees without the follower consuming anything;
        None for a local ring, where only replay frees slots."""
        return None

    def resync(self, at: int) -> None:
        """A fresh follower joins at ``at``; a local ring (cleared when
        its predecessor left) has nothing to flush."""


class BufferFull(SimulationError):
    """Raised by ``push`` when the buffer is at capacity."""

    def __init__(self, capacity: int) -> None:
        super().__init__(f"ring buffer full ({capacity} entries)")
        self.capacity = capacity
