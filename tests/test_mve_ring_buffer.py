"""Unit and property tests for the MVE ring buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.mve import ControlEvent, ControlKind, RingBuffer, VaranRuntime
from repro.mve.distring import DistributedRing
from repro.mve.ring_buffer import BufferFull, RingEntry
from repro.net import VirtualKernel
from repro.net.ring_wire import RingLink
from repro.servers.kvstore import KVStoreServer, KVStoreV1
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import write_record
from repro.workloads import VirtualClient


def rec(i):
    return write_record(4, f"payload-{i}".encode())


def test_push_pop_fifo():
    ring = RingBuffer(capacity=8)
    for i in range(5):
        ring.push(rec(i), produced_at=i * 10)
    out = [ring.pop() for _ in range(5)]
    assert [e.payload.data for e in out] == [rec(i).data for i in range(5)]
    assert [e.produced_at for e in out] == [0, 10, 20, 30, 40]


def test_push_when_full_raises():
    ring = RingBuffer(capacity=2)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.is_full()
    with pytest.raises(BufferFull):
        ring.push(rec(2), 0)


def test_pop_frees_slot():
    ring = RingBuffer(capacity=1)
    ring.push(rec(0), 0)
    ring.pop()
    ring.push(rec(1), 0)  # must not raise
    assert len(ring) == 1


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        RingBuffer(capacity=4).pop()


def test_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        RingBuffer(capacity=0)


def test_peek_does_not_consume():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.peek(0).payload.data == rec(0).data
    assert ring.peek(1).payload.data == rec(1).data
    assert ring.peek(2) is None
    assert len(ring) == 2


def test_sequence_numbers_are_global():
    ring = RingBuffer(capacity=2)
    ring.push(rec(0), 0)
    ring.pop()
    entry = ring.push(rec(1), 0)
    assert entry.sequence == 1


def test_counters_and_watermark():
    ring = RingBuffer(capacity=4)
    for i in range(3):
        ring.push(rec(i), 0)
    ring.pop()
    assert ring.produced_total == 3
    assert ring.consumed_total == 1
    assert ring.high_watermark == 3


def test_clear_counts_as_consumption():
    ring = RingBuffer(capacity=4)
    for i in range(3):
        ring.push(rec(i), 0)
    ring.clear()
    assert ring.is_empty()
    assert ring.consumed_total == 3


def test_control_events_flow_through():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(ControlEvent(ControlKind.PROMOTE), 5)
    ring.pop()
    event = ring.pop().payload
    assert isinstance(event, ControlEvent)
    assert event.kind is ControlKind.PROMOTE
    assert "promote" in event.describe()


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)), max_size=200),
       st.integers(1, 16))
def test_fifo_invariant_under_random_ops(ops, capacity):
    """Pops always return pushes in order; occupancy never exceeds capacity."""
    ring = RingBuffer(capacity=capacity)
    pushed = []
    popped = []
    counter = 0
    for is_push, _ in ops:
        if is_push:
            if ring.is_full():
                with pytest.raises(BufferFull):
                    ring.push(rec(counter), counter)
            else:
                ring.push(rec(counter), counter)
                pushed.append(counter)
                counter += 1
        else:
            if not ring.is_empty():
                popped.append(ring.pop().produced_at)
        assert len(ring) <= capacity
    assert popped == pushed[:len(popped)]
    assert ring.produced_total == len(pushed)
    assert ring.consumed_total == len(popped)


# ---------------------------------------------------------------------------
# Batched push/pop (hot-path API used by the MVE runtime)
# ---------------------------------------------------------------------------


def test_push_many_preserves_fifo_and_sequences():
    ring = RingBuffer(capacity=8)
    ring.push(rec(0), 0)
    entries = ring.push_many([rec(1), rec(2), rec(3)], produced_at=7)
    assert [e.sequence for e in entries] == [1, 2, 3]
    assert all(e.produced_at == 7 for e in entries)
    out = [ring.pop() for _ in range(4)]
    assert [e.payload.data for e in out] == [rec(i).data for i in range(4)]
    assert ring.produced_total == 4
    assert ring.high_watermark == 4


def test_push_many_is_atomic_when_batch_does_not_fit():
    ring = RingBuffer(capacity=4)
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    with pytest.raises(BufferFull):
        ring.push_many([rec(2), rec(3), rec(4)], produced_at=0)
    # Nothing was pushed: the batch either fits entirely or not at all.
    assert len(ring) == 2
    assert ring.produced_total == 2
    ring.push_many([rec(2), rec(3)], produced_at=0)
    assert len(ring) == 4


def test_push_many_empty_batch_is_a_noop():
    ring = RingBuffer(capacity=1)
    ring.push(rec(0), 0)
    assert ring.push_many([], produced_at=0) == []
    assert ring.produced_total == 1


def test_free_slots_tracks_occupancy():
    ring = RingBuffer(capacity=3)
    assert ring.free_slots() == 3
    ring.push(rec(0), 0)
    ring.push(rec(1), 0)
    assert ring.free_slots() == 1
    ring.pop()
    assert ring.free_slots() == 2


def test_pop_many_returns_oldest_in_order():
    ring = RingBuffer(capacity=8)
    for i in range(5):
        ring.push(rec(i), i)
    out = ring.pop_many(3)
    assert [e.produced_at for e in out] == [0, 1, 2]
    assert ring.consumed_total == 3
    assert len(ring) == 2


def test_pop_many_more_than_held_raises_with_counts():
    ring = RingBuffer(capacity=8)
    ring.push(rec(0), 0)
    with pytest.raises(SimulationError, match=r"pop_many\(3\).*holding 1"):
        ring.pop_many(3)
    assert len(ring) == 1  # nothing consumed on failure


@given(st.lists(st.integers(0, 6), max_size=60), st.integers(1, 16))
def test_batched_ops_match_singleton_ops(batch_sizes, capacity):
    """push_many/pop_many observe the same FIFO state as push/pop loops."""
    batched = RingBuffer(capacity=capacity)
    naive = RingBuffer(capacity=capacity)
    counter = 0
    for size in batch_sizes:
        payloads = [rec(counter + i) for i in range(size)]
        fits = size <= batched.free_slots()
        if fits:
            batched.push_many(payloads, produced_at=counter)
            for payload in payloads:
                naive.push(payload, produced_at=counter)
            counter += size
        else:
            with pytest.raises(BufferFull):
                batched.push_many(payloads, produced_at=counter)
            drain = min(size, len(batched))
            if drain:
                popped = batched.pop_many(drain)
                assert [e.payload.data for e in popped] == \
                    [naive.pop().payload.data for _ in range(drain)]
        assert len(batched) == len(naive)
        assert batched.produced_total == naive.produced_total
        assert batched.consumed_total == naive.consumed_total
        assert batched.high_watermark == naive.high_watermark


# -- RingEntry value semantics -----------------------------------------------------

def test_ring_entry_construction_and_fields():
    entry = RingEntry(rec(0), 10, 3)
    assert entry == RingEntry(payload=rec(0), produced_at=10, sequence=3)
    assert (entry.payload, entry.produced_at, entry.sequence) \
        == (rec(0), 10, 3)


@pytest.mark.parametrize("field, other", [
    ("payload", rec(1)), ("produced_at", 11), ("sequence", 4)])
def test_ring_entry_equality_is_over_all_fields(field, other):
    fields = dict(payload=rec(0), produced_at=10, sequence=3)
    assert RingEntry(**fields) != RingEntry(**{**fields, field: other})


def test_ring_entry_is_immutable():
    entry = RingEntry(rec(0), 10, 3)
    for field in ("payload", "produced_at", "sequence", "extra"):
        with pytest.raises(AttributeError):
            setattr(entry, field, 0)


def test_ring_entry_repr_names_every_field():
    event = ControlEvent(ControlKind.PROMOTE, at=5, version="v1")
    assert repr(RingEntry(event, 5, 0)) == (
        f"RingEntry(payload={event!r}, produced_at=5, sequence=0)")


def test_push_and_push_many_build_equal_entries():
    single, batch = RingBuffer(capacity=4), RingBuffer(capacity=4)
    singles = [single.push(rec(i), 7) for i in range(3)]
    assert batch.push_many([rec(i) for i in range(3)], 7) == singles
    assert singles == [RingEntry(rec(i), 7, i) for i in range(3)]


# ---------------------------------------------------------------------------
# The ring contract the runtime drives, over both implementations
# ---------------------------------------------------------------------------

#: Where the contract rings fill: slots locally, frames on the wire.
LIMIT = 3


def local_ring(limit=LIMIT):
    return RingBuffer(limit)


def link_ring(limit=LIMIT):
    # Capacity to spare, so the in-flight window is what binds.
    return DistributedRing(4 * limit, RingLink(latency_ns=1_000_000,
                                               window=limit))


@pytest.fixture(params=[local_ring, link_ring], ids=["local", "link"])
def make_ring(request):
    return request.param


@pytest.fixture
def ring(make_ring):
    return make_ring()


class TestRingContract:
    def test_virtual_time_half_is_inert_until_something_is_in_flight(
            self, ring):
        assert ring.partition_timed_out is False
        assert ring.next_free_at() is None
        ring.advance(10**9)
        ring.resync(10**9)
        assert ring.is_empty() and ring.free_slots() > 0
        assert ring.push(rec(0), 10**9).produced_at >= 10**9

    def test_bursts_land_in_order_stamped_no_earlier_than_pushed(self, ring):
        ring.push_many([rec(0), rec(1)], 100)
        ring.push(rec(2), 200)
        assert [entry.payload.data for entry in ring] == \
            [rec(i).data for i in range(3)]
        out = ring.pop_many(2) + [ring.pop()]
        assert [entry.sequence for entry in out] == [0, 1, 2]
        assert out[0].produced_at == out[1].produced_at >= 100
        assert out[2].produced_at >= max(200, out[1].produced_at)
        assert ring.is_empty() and list(ring) == []

    def test_full_means_no_free_slots_and_a_refused_push(self, ring):
        for i in range(LIMIT):
            assert ring.free_slots() > 0 and not ring.is_full()
            ring.push(rec(i), 0)
        assert ring.free_slots() == 0 and ring.is_full()
        held = len(ring)
        with pytest.raises(BufferFull):
            ring.push(rec(9), 0)
        with pytest.raises(BufferFull):
            ring.push_many([rec(9)], 0)
        assert len(ring) == held  # a refused push lands nothing

    def test_control_burst_at_the_boundary_lands(self, ring):
        """The promote event published into the last free slot (the
        last frame of the window) must land, not bounce after it was
        already sent — the retransmit-forever regression."""
        for i in range(LIMIT - 1):
            ring.push(rec(i), 0)
        event = ControlEvent(ControlKind.PROMOTE, at=7, version="1.0")
        [entry] = ring.push_many([event], 7)
        assert entry.payload.kind is ControlKind.PROMOTE
        assert ring.free_slots() == 0
        assert ring.high_watermark == LIMIT
        assert ring.pop_many(LIMIT)[-1].payload.version == "1.0"

    def test_clear_empties_and_reopens_the_ring(self, ring):
        for i in range(LIMIT):
            ring.push(rec(i), 0)
        ring.clear()
        assert ring.is_empty() and ring.next_free_at() is None
        assert ring.free_slots() > 0
        assert ring.consumed_total == ring.produced_total == LIMIT

    def test_runtime_promotes_through_a_full_ring(self, make_ring):
        """End to end: the control event goes through the same
        back-pressure loop as an iteration's records."""
        kernel = VirtualKernel()
        server = KVStoreServer(KVStoreV1())
        server.attach(kernel)
        ring = make_ring(6)  # two 3-record iterations, or 6 frames
        runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                               ring=ring)
        client = VirtualClient(kernel, server.address)
        follower = runtime.fork_follower(0)
        follower.cpu.block_until(10**12)
        for i in range(12):
            client.command(runtime, b"PUT k%d v" % i, now=10**9 + i)
        assert runtime.ring_stalls > 0
        assert ring.free_slots() == 0  # full as the control event arrives
        done = runtime.promote(2 * 10**12)
        assert runtime.leader is follower and done >= 2 * 10**12
        assert ring.is_empty() and not runtime.lanes[0].pending
        assert client.command(runtime, b"GET k11", now=done) == b"v\r\n"
