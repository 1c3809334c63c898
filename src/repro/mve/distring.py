"""A replicated ring buffer across fleet nodes (dMVX-style).

:class:`DistributedRing` fills in the virtual-time half of the
:class:`~repro.mve.ring_buffer.RingBuffer` contract — the Varan runtime
drives it through the exact same ``advance`` / ``free_slots`` /
``push_many`` / ``pop_many`` dance as a local ring — and every published
burst actually crosses a :class:`~repro.net.ring_wire.RingLink`: the
burst is coalesced into one ``repro-ring/1`` frame, encoded, charged
propagation + serialisation time, decoded on the far side, and only
then lands in the follower's buffer.  Entries are stamped with their
*delivery* time, so the existing causality rule in follower replay
("start no earlier than the records' produce times") automatically
becomes "start no earlier than the frame arrived".

Back-pressure has two sources instead of one:

* **receiver capacity** — the inherited bounded buffer, unchanged;
* **the in-flight window** — at most :attr:`RingLink.window`
  unacknowledged frames on the wire.  While the window is full,
  :meth:`free_slots` reports zero and the leader blocks through the
  existing ring-stall accounting; :meth:`advance` retires acks as
  virtual time passes and :meth:`next_free_at` tells the runtime when
  the earliest ack lands.

Partitions are injected at the chaos site ``fleet.ring`` (kinds
``partition-drop`` / ``partition-delay`` / ``partition-reorder``).  A
fault delays the current frame — a drop costs one retransmit, a
reorder parks the frame in the receiver's reassembly buffer until the
monotone delivery clamp releases it — and the delay accrues against
:attr:`RingLink.demote_timeout_ns`.  Crossing the budget sets
:attr:`partition_timed_out`; the runtime demotes the follower
("ring-partition-timeout") and a later fork rejoins via
:meth:`resync`, which resets the partition accounting and counts a
``ring.resync``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.mve.ring_buffer import (BufferFull, Payload, RingBuffer,
                                   RingEntry)
from repro.net.ring_wire import (RingLink, decode_frame, encode_frame,
                                 transit_ns)
from repro.sites import OBS

#: Default extra delay of a ``partition-delay`` fault (param ``delay_ns``).
PARTITION_DELAY_NS = 25_000_000
#: Default reassembly deferral of a ``partition-reorder`` fault
#: (param ``defer_ns``).
PARTITION_REORDER_NS = 10_000_000


class DistributedRing(RingBuffer):
    """The ring buffer with a network link between push and pop."""

    def __init__(self, capacity: int, link: RingLink) -> None:
        super().__init__(capacity)
        problems = link.problems()
        if problems:
            raise SimulationError("bad ring link: " + "; ".join(problems))
        self.link = link
        self._inflight: Deque[Tuple[int, int]] = deque()
        self._vnow = 0
        #: Monotone delivery clamp — the receiver's reassembly buffer:
        #: a frame can never *apply* before its predecessor, so a
        #: reordered (late) frame parks every later frame behind it.
        self._last_delivery = 0
        self._frame_seq = 0
        # Wire telemetry (all deterministic; surfaced in fleet reports).
        self.frames_sent = 0
        self.acks_received = 0
        self.bytes_sent = 0
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.frames_reordered = 0
        self.inflight_high_watermark = 0
        self.resyncs = 0
        #: Chaos-induced delay accrued since the last resync; crossing
        #: ``link.demote_timeout_ns`` trips the partition timeout.
        self.partition_delay_ns = 0
        self.partition_timed_out = False
        self.partition_timed_out_at: Optional[int] = None
        #: Lifetime count of tripped timeouts (survives resync).
        self.partition_timeouts = 0

    # ------------------------------------------------------------------
    # RingBuffer contract, window-aware
    # ------------------------------------------------------------------

    def inflight(self) -> int:
        """Unacknowledged frames currently on the wire."""
        return len(self._inflight)

    def is_full(self) -> bool:
        return self.free_slots() == 0

    def free_slots(self) -> int:
        """Zero while the in-flight window is exhausted — network
        back-pressure surfaces as the familiar full-ring stall."""
        if len(self._inflight) >= self.link.window:
            return 0
        return self.capacity - len(self._entries)

    def push(self, payload: Payload, produced_at: int) -> RingEntry:
        """A one-payload frame."""
        return self.push_many([payload], produced_at)[0]

    def push_many(self, payloads: Sequence[Payload],
                  produced_at: int) -> List[RingEntry]:
        if len(self._inflight) >= self.link.window \
                or len(payloads) > self.capacity - len(self._entries):
            raise BufferFull(self.capacity)
        decoded, deliver_at = self._transmit(payloads, produced_at)
        # The transmit may fill the window to exactly ``link.window``;
        # landing the entries must check *capacity* only (the frame is
        # already on the wire): the base push_many's guard does not
        # consult the window.
        return super().push_many(decoded, deliver_at)

    def clear(self) -> None:
        """Drop buffered entries *and* in-flight frames (the follower
        they were bound for is gone); partition accounting survives
        until :meth:`resync` so the demotion cause stays readable."""
        super().clear()
        self._inflight.clear()

    # ------------------------------------------------------------------
    # Virtual-time plumbing
    # ------------------------------------------------------------------

    def advance(self, at: int) -> None:
        """Move link time forward, retiring acks that have landed."""
        if at > self._vnow:
            self._vnow = at
        while self._inflight and self._inflight[0][0] <= self._vnow:
            self._inflight.popleft()
            self.acks_received += 1

    def next_free_at(self) -> Optional[int]:
        """When the earliest in-flight ack lands (None if none are
        outstanding — then the stall is a capacity problem, not a
        window problem, and the local diagnosis applies)."""
        if self._inflight:
            return self._inflight[0][0]
        return None

    def resync(self, at: int) -> None:
        """Rejoin the stream at a fork: flush the wire, zero the
        partition accounting, count a resync."""
        self.advance(at)
        self._inflight.clear()
        self.partition_delay_ns = 0
        self.partition_timed_out = False
        self.partition_timed_out_at = None
        if at > self._last_delivery:
            self._last_delivery = at
        self.resyncs += 1
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit("net.ring.resync", "net", at=at,
                        resyncs=self.resyncs)

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------

    def _partition_delay(self, produced_at: int) -> int:
        """Fire the ``fleet.ring`` chaos site for this frame; returns
        the injected delay (0 when no fault is armed)."""
        chaos = OBS.chaos
        if chaos is None:
            return 0
        fault = chaos.fire("fleet.ring")
        if fault is None:
            return 0
        if fault.kind == "partition-drop":
            delay = int(fault.param.get("delay_ns", self.link.retransmit_ns))
            self.frames_dropped += 1
        elif fault.kind == "partition-delay":
            delay = int(fault.param.get("delay_ns", PARTITION_DELAY_NS))
            self.frames_delayed += 1
        elif fault.kind == "partition-reorder":
            delay = int(fault.param.get("defer_ns", PARTITION_REORDER_NS))
            self.frames_reordered += 1
        else:
            return 0
        self.partition_delay_ns += delay
        if not self.partition_timed_out \
                and self.partition_delay_ns >= self.link.demote_timeout_ns:
            self.partition_timed_out = True
            self.partition_timed_out_at = produced_at + delay
            self.partition_timeouts += 1
        return delay

    def _transmit(self, payloads: Sequence[Payload],
                  produced_at: int) -> Tuple[List[Payload], int]:
        """Ship one frame; returns the decoded payloads and the virtual
        time they become visible to the follower."""
        line = encode_frame(self._frame_seq, payloads)
        n_bytes = len(line)  # a frame is ASCII
        if produced_at > OBS.vnow:
            OBS.vnow = produced_at
        delay = self._partition_delay(produced_at)
        deliver_at = produced_at + transit_ns(self.link, n_bytes) + delay
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        sequence, decoded = decode_frame(line)
        ack_at = deliver_at + self.link.latency_ns
        self._inflight.append((ack_at, sequence))
        if len(self._inflight) > self.inflight_high_watermark:
            self.inflight_high_watermark = len(self._inflight)
        self.frames_sent += 1
        self.bytes_sent += n_bytes
        self._frame_seq = sequence + 1
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit("net.ring.frame", "net", at=produced_at,
                        sequence=sequence, count=len(decoded), bytes=n_bytes,
                        inflight=len(self._inflight), deliver_at=deliver_at)
        spans = OBS.spans
        if spans is not None:
            spans.add("net.ring", "net", produced_at, deliver_at,
                      sequence=sequence, bytes=n_bytes)
        return decoded, deliver_at

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic wire telemetry for fleet/perf reports."""
        return {
            "acks_received": self.acks_received,
            "bytes_sent": self.bytes_sent,
            "frames_delayed": self.frames_delayed,
            "frames_dropped": self.frames_dropped,
            "frames_reordered": self.frames_reordered,
            "frames_sent": self.frames_sent,
            "inflight_high_watermark": self.inflight_high_watermark,
            "partition_delay_ns": self.partition_delay_ns,
            "partition_timeouts": self.partition_timeouts,
            "resyncs": self.resyncs,
        }
