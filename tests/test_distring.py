"""The distributed ring: wire protocol, back-pressure, partitions.

Covers the ``repro-ring/1`` frame format (`repro.net.ring_wire`), the
:class:`~repro.mve.distring.DistributedRing` window/ack machinery, the
``fleet.ring`` partition chaos site with demotion and resync, and the
end-to-end guarantees: distributed fleet runs are bit-stable per seed
and local runs are untouched by the distributed machinery.
"""

import pytest
from hypothesis import given, strategies as st

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import Fault, FaultPlan, on_call
from repro.errors import SimulationError
from repro.mve.distring import DistributedRing
from repro.mve.events import ControlEvent, ControlKind
from repro.mve.ring_buffer import BufferFull
from repro.net.ring_wire import (RingLink, WireError, decode_ack,
                                 decode_frame, encode_ack, encode_frame,
                                 frame_line, transit_ns)
from repro.obs.trace import serialize_record
from repro.sites import observing
from repro.syscalls.model import (EMPTY_AUX, Sys, SyscallRecord,
                                  write_record)


def rec(i):
    return write_record(4, f"payload-{i}".encode())


LINK = RingLink(latency_ns=1_000_000, bandwidth_bps=1_000_000_000,
                window=2, demote_timeout_ns=50_000_000,
                retransmit_ns=10_000_000)


class TestRingWire:
    def test_frame_round_trip_preserves_records(self):
        payloads = [rec(0), rec(1), rec(2)]
        sequence, decoded = decode_frame(encode_frame(7, payloads))
        assert sequence == 7
        assert [p.data for p in decoded] == [p.data for p in payloads]
        assert [p.name for p in decoded] == [p.name for p in payloads]
        assert [p.fd for p in decoded] == [p.fd for p in payloads]

    def test_frame_round_trip_preserves_control_events(self):
        event = ControlEvent(ControlKind.PROMOTE, at=123, version="2.0")
        _, decoded = decode_frame(encode_frame(0, [event]))
        assert isinstance(decoded[0], ControlEvent)
        assert decoded[0].kind is ControlKind.PROMOTE
        assert decoded[0].at == 123
        assert decoded[0].version == "2.0"

    def test_a_terminate_control_event_is_refused(self):
        # Promotion is the one control event; no other ``ctl`` decodes.
        line = frame_line({"schema": "repro-ring/1", "seq": 0,
                           "records": [{"ctl": "terminate", "at": 1}]})
        with pytest.raises(WireError, match="unknown control kind"):
            decode_frame(line)

    def test_decoded_records_are_copies_not_references(self):
        original = rec(0)
        _, decoded = decode_frame(encode_frame(0, [original]))
        assert decoded[0] is not original

    def test_empty_frame_refused(self):
        with pytest.raises(WireError):
            encode_frame(0, [])

    def test_negative_sequence_refused(self):
        with pytest.raises(WireError):
            encode_frame(-1, [rec(0)])

    def test_truncated_frame_rejected(self):
        line = encode_frame(3, [rec(0)])
        with pytest.raises(WireError):
            decode_frame(line[:len(line) // 2])

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_frame("not a frame at all")
        with pytest.raises(WireError):
            decode_frame("00000004 {!!}")

    def test_wrong_schema_rejected(self):
        line = frame_line({"schema": "repro-ring/99", "seq": 0,
                           "records": [{"x": 1}]})
        with pytest.raises(WireError, match="schema"):
            decode_frame(line)

    def test_bad_sequence_rejected(self):
        for seq in (None, -4, "7"):
            line = frame_line({"schema": "repro-ring/1", "seq": seq,
                               "records": [{"x": 1}]})
            with pytest.raises(WireError):
                decode_frame(line)

    def test_recordless_frame_rejected(self):
        line = frame_line({"schema": "repro-ring/1", "seq": 0,
                           "records": []})
        with pytest.raises(WireError):
            decode_frame(line)

    def test_ack_round_trip_and_rejection(self):
        assert decode_ack(encode_ack(41)) == 41
        with pytest.raises(WireError):
            decode_ack("garbage")
        with pytest.raises(WireError):
            decode_ack(frame_line({"schema": "repro-ring/1", "ack": -1}))

    def test_transit_charges_latency_plus_serialisation(self):
        link = RingLink(latency_ns=100, bandwidth_bps=1_000_000_000)
        assert transit_ns(link, 0) == 100
        assert transit_ns(link, 1000) == 100 + 1000
        # Rounded up, never down.
        slow = RingLink(latency_ns=0, bandwidth_bps=3_000_000_000)
        assert transit_ns(slow, 1) == 1

    def test_link_validation(self):
        assert RingLink().problems() == []
        bad = RingLink(latency_ns=-1, bandwidth_bps=0, window=0,
                       demote_timeout_ns=0, retransmit_ns=-1)
        assert len(bad.problems()) == 5
        with pytest.raises(SimulationError):
            DistributedRing(8, RingLink(window=0))


# ---------------------------------------------------------------------------
# The codec against its reference formulation
# ---------------------------------------------------------------------------

def reference_frame(sequence, payloads):
    """``repro-ring/1`` as first written: each payload as the dict
    ``serialize_record`` lays it out (a control event too), the body
    through ``json.dumps(sort_keys=True, separators=(",", ":"))``.
    ``encode_frame`` writes the same bytes without building either."""
    return frame_line({"schema": "repro-ring/1", "seq": sequence,
                       "records": [serialize_record(payload)
                                   for payload in payloads]})


#: Every byte value, the JSON-special ones (quote, backslash, controls,
#: the 0x7f/0x80 edge) over-weighted.
payload_bytes = st.one_of(
    st.binary(max_size=24),
    st.lists(st.sampled_from([b'"', b"\\", b"\r\n", b"\x00", b"\x1f",
                              b"\x7f", b"\x80", b"\xff", b"/", b"PUT k v"]),
             max_size=6).map(b"".join))
results = st.recursive(
    st.one_of(st.none(), st.integers(-2**70, 2**70), st.booleans(),
              st.text(max_size=8), payload_bytes),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
aux_maps = st.one_of(
    st.just(EMPTY_AUX),
    st.dictionaries(st.text(max_size=6),
                    st.one_of(st.booleans(), st.integers(-9, 9),
                              st.text(max_size=6)), max_size=3))
syscall_records = st.builds(
    SyscallRecord, st.sampled_from(list(Sys)),
    st.one_of(st.integers(-3, 2**20), st.integers(-2**40, 2**40)),
    payload_bytes, results, aux_maps)
control_events = st.builds(
    ControlEvent, st.sampled_from(list(ControlKind)),
    st.one_of(st.none(), st.integers(0, 2**62)),
    st.one_of(st.none(), st.text(max_size=8)))
bursts = st.lists(st.one_of(syscall_records, control_events),
                  min_size=1, max_size=5)


def same_types(left, right):
    """Equal values of equal types all the way down (``1 == True`` and
    ``(1,) == [1]``-style slack is what a codec bug looks like)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, tuple):
        return len(left) == len(right) \
            and all(map(same_types, left, right))
    return left == right


class TestCodecEquivalence:
    @given(sequence=st.integers(0, 2**40), payloads=bursts)
    def test_encoder_writes_the_reference_bytes(self, sequence, payloads):
        line = encode_frame(sequence, payloads)
        assert line == reference_frame(sequence, payloads)
        assert line.isascii() and int(line[:8], 16) == len(line) - 9

    @given(sequence=st.integers(0, 2**40), payloads=bursts)
    def test_round_trip_returns_what_went_in(self, sequence, payloads):
        got_sequence, decoded = decode_frame(encode_frame(sequence,
                                                          payloads))
        assert got_sequence == sequence and len(decoded) == len(payloads)
        for sent, got in zip(payloads, decoded):
            assert type(got) is type(sent)
            if isinstance(sent, ControlEvent):
                assert got == sent
                continue
            assert got[:3] == sent[:3] and got.name is sent.name
            assert type(got.fd) is int and type(got.data) is bytes
            assert same_types(got.result, sent.result)
            # An absent aux is the shared empty one, not a new dict.
            if sent.aux:
                assert got.aux == sent.aux
            else:
                assert got.aux is EMPTY_AUX

    #: Well-framed, ill-typed bodies: each was a traceback (or passed as
    #: data) before the decoder validated fields as it builds records.
    ILL_TYPED = {
        "data-int": {"sys": "read", "fd": 4, "data": 5},
        "result-b-int": {"sys": "read", "fd": 4, "result": {"b": 5}},
        "result-t-int": {"sys": "read", "fd": 4, "result": {"t": 5}},
        "result-nested-b-null":
            {"sys": "read", "fd": 4, "result": {"t": [{"b": None}]}},
        "aux-int": {"sys": "read", "fd": 4, "aux": 5},
        "fd-word": {"sys": "read", "fd": "x"},
        "fd-digit-string": {"sys": "read", "fd": "4"},
        "fd-bool": {"sys": "read", "fd": True},
        "fd-float": {"sys": "read", "fd": 4.0},
        "data-beyond-latin1": {"sys": "read", "fd": 4, "data": "\u0100"},
        "data-lone-surrogate": {"sys": "read", "fd": 4, "data": "\ud800"},
        "result-b-beyond-latin1":
            {"sys": "read", "fd": 4, "result": {"b": "\u0100"}},
        "sys-list": {"sys": ["read"], "fd": 4},
        "sys-unknown": {"sys": "reed", "fd": 4},
        "sys-absent": {"fd": 4},
        "ctl-at-word": {"ctl": "promote", "at": "soon"},
        "ctl-at-bool": {"ctl": "promote", "at": True},
        "ctl-version-int": {"ctl": "promote", "version": 2},
        "ctl-list": {"ctl": ["promote"]},
        "ctl-unknown": {"ctl": "abdicate"},
        "entry-int": 5,
    }

    @pytest.mark.parametrize("case", sorted(ILL_TYPED))
    def test_ill_typed_entries_are_wire_errors(self, case):
        line = frame_line({"schema": "repro-ring/1", "seq": 0,
                           "records": [serialize_record(rec(0)),
                                       self.ILL_TYPED[case]]})
        with pytest.raises(WireError):
            decode_frame(line)

    def test_a_boolean_is_not_a_sequence_number(self):
        with pytest.raises(WireError):
            decode_frame(frame_line({"schema": "repro-ring/1", "seq": True,
                                     "records": [serialize_record(rec(0))]}))
        with pytest.raises(WireError):
            decode_ack(frame_line({"schema": "repro-ring/1", "ack": True}))
        with pytest.raises(WireError):
            encode_frame(True, [rec(0)])

    def test_a_foreign_encoder_may_send_raw_utf8(self):
        # This encoder escapes everything; the format only says the
        # prefix counts the body's UTF-8 bytes.
        def frame(text, extra_bytes):
            body = ('{"records":[{"data":"' + text + '","fd":4,'
                    '"sys":"read"}],"schema":"repro-ring/1","seq":0}')
            return f"{len(body) + extra_bytes:08x} {body}"
        assert decode_frame(frame("caf\xe9", 1))[1][0].data == b"caf\xe9"
        with pytest.raises(WireError, match="length prefix"):
            decode_frame(frame("caf\xe9", 0))
        # A lone surrogate cannot be UTF-8 at all: typed, not a crash.
        with pytest.raises(WireError):
            decode_frame(frame("caf\ud800", 2))

    @pytest.mark.parametrize("depth", [50, 400, 20_000])
    def test_deeply_nested_results_decode_or_are_wire_errors(self, depth):
        # Where the JSON layer or the untagging gives up depends on the
        # interpreter's stack; what may not happen is a RecursionError.
        body = ('{"records":[{"fd":4,"result":' + '{"t":[' * depth + "1"
                + "]}" * depth
                + ',"sys":"read"}],"schema":"repro-ring/1","seq":0}')
        try:
            _, (record,) = decode_frame(f"{len(body):08x} {body}")
        except WireError:
            return
        value = record.result
        for _ in range(depth):
            (value,) = value
        assert value == 1


class TestDistributedRing:
    def test_entries_land_at_delivery_time(self):
        ring = DistributedRing(8, LINK)
        entry = ring.push(rec(0), produced_at=1000)
        # Delivered one propagation + serialisation later, never sooner.
        assert entry.produced_at >= 1000 + LINK.latency_ns
        assert entry.payload.data == rec(0).data

    def test_fifo_order_survives_the_wire(self):
        ring = DistributedRing(8, RingLink(window=8))
        for i in range(5):
            ring.advance((i + 1) * 10_000_000)
            ring.push(rec(i), produced_at=(i + 1) * 10_000_000)
        out = [ring.pop() for _ in range(5)]
        assert [e.payload.data for e in out] == \
            [rec(i).data for i in range(5)]
        deliveries = [e.produced_at for e in out]
        assert deliveries == sorted(deliveries)

    def test_window_full_maps_to_ring_stall(self):
        ring = DistributedRing(8, LINK)  # window=2
        ring.push(rec(0), 0)
        ring.push(rec(1), 0)
        assert ring.inflight() == 2
        assert ring.free_slots() == 0
        assert ring.is_full()
        with pytest.raises(BufferFull):
            ring.push(rec(2), 0)
        # The stall clears when the earliest ack lands.
        freed_at = ring.next_free_at()
        assert freed_at is not None
        ring.advance(freed_at)
        assert ring.free_slots() > 0
        ring.push(rec(2), freed_at)
        assert ring.acks_received >= 1

    def test_push_that_fills_the_window_still_lands(self):
        # Regression: the transmit itself fills the window to exactly
        # link.window; landing the already-sent frame must not consult
        # the window again (it used to raise BufferFull post-transmit
        # and retransmit forever).
        ring = DistributedRing(8, LINK)  # window=2
        ring.push(rec(0), 0)
        entry = ring.push(rec(1), 0)  # fills the window mid-push
        assert entry.payload.data == rec(1).data
        assert ring.frames_sent == 2
        assert len(ring) == 2

    def test_next_free_at_is_none_without_inflight_frames(self):
        ring = DistributedRing(8, LINK)
        assert ring.next_free_at() is None

    def test_inflight_high_watermark_and_stats_shape(self):
        ring = DistributedRing(8, LINK)
        ring.push(rec(0), 0)
        ring.push(rec(1), 0)
        stats = ring.stats()
        assert stats["frames_sent"] == 2
        assert stats["inflight_high_watermark"] == 2
        assert stats["bytes_sent"] > 0
        assert list(stats) == sorted(stats)

    def test_clear_drops_inflight_frames_too(self):
        ring = DistributedRing(8, LINK)
        ring.push(rec(0), 0)
        ring.clear()
        assert ring.inflight() == 0
        assert len(ring) == 0


def _partition_ring(kind, *, param=None, count=-1, link=None):
    """A ring whose chaos injector fires ``kind`` on every frame."""
    plan = FaultPlan("test-partition", (
        Fault("fleet.ring", kind, on_call(1, count=count),
              param=param or {}),))
    injector = ChaosInjector(plan)
    # on_call(1) with unlimited count fires per-site-call index 1 only;
    # use a predicate for "every frame" instead.
    return injector, link or LINK


def _clean_push():
    """Frame 0 over :data:`LINK` with no injector in the way."""
    with observing(chaos=None):
        return DistributedRing(16, LINK).push(rec(0), 0)


class TestPartitions:
    @pytest.fixture(autouse=True)
    def _installer(self, install):
        self._install = install

    def _ring_with_faults(self, faults, link=LINK):
        injector = ChaosInjector(FaultPlan("test-partition", faults))
        self._install(chaos=injector)
        return DistributedRing(16, link), injector

    def test_delay_fault_postpones_delivery_and_accrues(self):
        ring, _ = self._ring_with_faults(
            (Fault("fleet.ring", "partition-delay", on_call(1),
                   param={"delay_ns": 7_000_000}),))
        delayed = ring.push(rec(0), 0)
        clean = _clean_push()
        assert delayed.produced_at == clean.produced_at + 7_000_000
        assert ring.frames_delayed == 1
        assert ring.partition_delay_ns == 7_000_000
        assert not ring.partition_timed_out

    def test_drop_fault_costs_a_retransmit(self):
        ring, _ = self._ring_with_faults(
            (Fault("fleet.ring", "partition-drop", on_call(1)),))
        entry = ring.push(rec(0), 0)
        clean = _clean_push()
        assert entry.produced_at == clean.produced_at + LINK.retransmit_ns
        assert ring.frames_dropped == 1

    def test_reorder_parks_later_frames_behind_the_late_one(self):
        # Frame 0 is deferred; frame 1, sent later, would arrive first
        # on the raw wire — the monotone clamp applies them in order.
        ring, _ = self._ring_with_faults(
            (Fault("fleet.ring", "partition-reorder", on_call(1),
                   param={"defer_ns": 30_000_000}),),
            link=RingLink(latency_ns=1_000_000, window=8,
                          demote_timeout_ns=200_000_000))
        first = ring.push(rec(0), 0)
        second = ring.push(rec(1), 100)
        assert ring.frames_reordered == 1
        assert second.produced_at >= first.produced_at
        out = [ring.pop(), ring.pop()]
        assert [e.payload.data for e in out] == [rec(0).data, rec(1).data]

    def test_cumulative_delay_trips_the_demotion_timeout(self):
        faults = tuple(
            Fault("fleet.ring", "partition-delay", on_call(i + 1),
                  param={"delay_ns": 20_000_000})
            for i in range(3))  # 60 ms total > 50 ms budget
        ring, _ = self._ring_with_faults(
            faults, link=RingLink(latency_ns=1_000_000, window=8,
                                  demote_timeout_ns=50_000_000))
        for i in range(3):
            ring.push(rec(i), i * 1000)
        assert ring.partition_timed_out
        assert ring.partition_timed_out_at is not None
        assert ring.partition_timeouts == 1

    def test_resync_rejoins_with_a_clean_slate(self):
        faults = tuple(
            Fault("fleet.ring", "partition-delay", on_call(i + 1),
                  param={"delay_ns": 30_000_000})
            for i in range(2))
        ring, _ = self._ring_with_faults(faults)
        ring.push(rec(0), 0)
        ring.push(rec(1), 1000)
        assert ring.partition_timed_out
        ring.resync(100_000_000)
        assert not ring.partition_timed_out
        assert ring.partition_delay_ns == 0
        assert ring.inflight() == 0
        assert ring.resyncs == 1
        # The lifetime timeout tally survives the rejoin.
        assert ring.partition_timeouts == 1
        # Deliveries resume no earlier than the rejoin point.
        entry = ring.push(rec(2), 1_000_000)
        assert entry.produced_at >= 100_000_000

    def test_local_scenario_never_reaches_the_site(self):
        # fleet.ring fires per frame; a local ring sends none, so a
        # partition plan against a local run is entirely vacuous.
        from repro.chaos.scenarios import run_kv_update_scenario
        plan = FaultPlan("vacuous", (
            Fault("fleet.ring", "partition-drop", on_call(1)),))
        injector = ChaosInjector(plan)
        with observing(chaos=injector):
            run_kv_update_scenario()
        assert injector.site_calls.get("fleet.ring", 0) == 0
        assert injector.injections == []


class TestEndToEnd:
    def test_distributed_scenario_completes_cleanly(self):
        from repro.chaos.invariants import check_run
        from repro.chaos.scenarios import run_kv_update_scenario
        result = run_kv_update_scenario(distributed=True)
        assert result.timeline.succeeded()
        assert check_run(result.observations, result.final_table) == []

    def test_distributed_scenario_is_bit_stable(self):
        from repro.chaos.scenarios import run_kv_update_scenario
        first = run_kv_update_scenario(distributed=True)
        second = run_kv_update_scenario(distributed=True)
        assert first.observations == second.observations
        assert first.final_table == second.final_table

    def test_default_fleet_report_has_no_distring_key(self):
        from repro.cluster.fleet import run_fleet_scenario
        report = run_fleet_scenario()
        assert "distring" not in report

    def test_distributed_fleet_report_is_bit_stable(self):
        import json
        from repro.cluster.fleet import run_fleet_scenario, validate_report
        first = run_fleet_scenario(distributed=True)
        second = run_fleet_scenario(distributed=True)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert validate_report(first) == []
        distring = first["distring"]
        assert distring["link"] == RingLink().as_dict()
        assert distring["wire"]["frames_sent"] > 0
        # Every pair's follower lives on a different node.
        for leader, follower in distring["pairs"].items():
            assert leader != follower

    def test_bench_sweep_is_bit_stable_and_monotone(self):
        from repro.bench.distring import run_distring_comparison
        first = run_distring_comparison(seed=1, commands=60)
        second = run_distring_comparison(seed=1, commands=60)
        assert first == second
        rows = first["rows"]
        assert rows[0]["ring"] == "local"
        stalls = [row["ring_stalls"] for row in rows[1:]]
        assert stalls == sorted(stalls)
        availability = [row["slo_availability"] for row in rows[1:]]
        assert availability == sorted(availability, reverse=True)
        assert all(row["finalized"] for row in rows)
        # Every request is framed and answered: an epoll_wait, a read
        # and the reply's write each (plus the accept) — a sweep whose
        # server never replies would raise instead.
        assert all(row["syscalls"] >= 3 * row["requests"] for row in rows)

    def test_default_sweep_gauges_are_pinned(self):
        # The EXPERIMENTS.md table shows these at display precision;
        # here they are exact, so a shifted stall or percentile fails
        # even when the rounded table still reads the same.
        from repro.bench.distring import run_distring_comparison
        rows = run_distring_comparison()["rows"]
        assert [(row["ring_stalls"], row["latency_p99_ns"],
                 round(1000 * row["slo_availability"])) for row in rows] \
            == [(0, 13149680, 946), (5, 13149680, 946),
                (15, 13149680, 900), (87, 194146640, 246)]
        assert [(row["frames"], row["wire_bytes"]) for row in rows[1:]] \
            == [(121, 25548)] * 3
        assert all(row["finalized"] for row in rows)


class TestFleetLintMve704:
    def test_cross_node_without_link_is_flagged(self):
        from repro.analysis.specs import lint_spec
        from repro.cluster.shard import FleetSpec
        spec = FleetSpec(2, 2, wave_size=1, cross_node_pairs=True)
        assert spec.link_problems() != []
        findings = lint_spec("app", "fleet_topologies", spec)
        assert [f.code for f in findings] == ["MVE704"]
        assert findings[0].severity.value == "error"

    def test_malformed_link_is_flagged(self):
        from repro.analysis.specs import lint_spec
        from repro.cluster.shard import FleetSpec
        spec = FleetSpec(2, 2, wave_size=1, cross_node_pairs=True,
                         ring_link=RingLink(window=0))
        assert any(f.code == "MVE704"
                   for f in lint_spec("app", "fleet_topologies", spec))

    def test_declared_link_is_clean(self):
        from repro.analysis.specs import lint_spec
        from repro.cluster.shard import FleetSpec
        spec = FleetSpec(2, 2, wave_size=1, cross_node_pairs=True,
                         ring_link=RingLink())
        assert lint_spec("app", "fleet_topologies", spec) == []

    def test_bad_catalog_trips_mve704(self):
        from repro.analysis.cli import run_catalog
        from tests.fixtures.bad_catalog import catalog
        report = run_catalog(catalog())
        assert any(f.code == "MVE704" for f in report.findings)

    def test_mve704_is_registered_for_sarif(self):
        from repro.analysis.findings import RULE_METADATA
        assert "MVE704" in RULE_METADATA


class TestDistributedCampaign:
    def test_partition_cells_are_in_the_distributed_grid(self):
        from repro.chaos.campaign import default_grid, probe_site_calls
        distributed = probe_site_calls("kvstore-distributed")
        assert distributed.get("fleet.ring", 0) > 0
        grid = default_grid(distributed, seed=1)
        kinds = {f.kind for f in grid if f.site == "fleet.ring"}
        assert kinds == {"partition-drop", "partition-delay",
                         "partition-reorder"}
        # The local grid stays exactly as it was: no reachable
        # fleet.ring calls, no partition cells.
        local = probe_site_calls("kvstore")
        assert local.get("fleet.ring", 0) == 0
        assert all(f.site != "fleet.ring"
                   for f in default_grid(local, seed=1))

    def test_sustained_partition_cell_is_clean(self):
        # The demotion-on-timeout path end to end: every frame dropped
        # until the demote budget trips; the update must roll back (or
        # mask) without ever lying to a client.
        from repro.chaos.campaign import run_campaign
        from repro.chaos.plan import when
        plan = FaultPlan("sustained-partition", (
            Fault("fleet.ring", "partition-drop",
                  when(lambda ctx: True, count=-1,
                       label="sustained partition")),))
        report = run_campaign("kvstore-distributed", plan=plan)
        assert report["cells"] == 1
        assert report["outcomes"].get("invariant-violation", 0) == 0
