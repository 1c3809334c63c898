"""repro.obs.trace / repro.obs.metrics: the tracer and its registry."""

import json
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mve.events import ControlEvent, ControlKind
from repro.obs import (
    MetricsRegistry,
    TRACE_SCHEMA,
    Tracer,
    validate_trace_lines,
)
from repro.obs.spans import SpanCollector
from repro.obs.trace import TraceEvent, jsonable
from repro.servers.kvstore import KVStoreV2, kv_rules
from repro.sim.engine import SECOND
from repro.sites import OBS, observing
from repro.syscalls.model import Sys, SyscallRecord


# -- core emission ----------------------------------------------------------

def test_emit_stamps_and_advances_virtual_time():
    tracer = Tracer(experiment="t")
    tracer.emit("a", "sim", at=10)
    assert tracer.vnow == 10
    # No explicit timestamp: reuse the last advanced time.
    tracer.emit("b", "sim")
    assert tracer.events[-1].at == 10
    # Time never moves backwards.
    tracer.advance(5)
    assert tracer.vnow == 10
    tracer.emit("c", "sim", at=30)
    assert tracer.vnow == 30


def test_kind_tally_counts_events():
    tracer = Tracer()
    tracer.emit("x", "sim")
    tracer.emit("x", "sim")
    tracer.emit("y", "mve")
    assert tracer.kind_tally() == {"x": 2, "y": 1}


def test_jsonable_handles_bytes_enums_and_containers():
    assert jsonable(b"GET a\r\n") == "GET a\\r\\n"
    assert jsonable(ControlKind.PROMOTE) == "promote"
    assert jsonable((1, b"x")) == [1, "x"]
    assert jsonable({"k": b"v"}) == {"k": "v"}
    assert jsonable(None) is None
    # Fallback: objects without a JSON form are repr()ed, never raise.
    assert "object" in jsonable(object())


# -- the flat log against the eager reference -------------------------------

class EagerTracer(Tracer):
    """The event path this tracer had before the flat log, kept as the
    reference: one :class:`TraceEvent` (and its kwargs dict) built per
    event at emission, kinds formatted and counters looked up by name
    every time, readers walking the event objects.  The hooks it does
    not override reach it through ``emit``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eager_events = []

    events = property(lambda self: self.eager_events)

    def emit(self, kind, layer, at=None, **fields):
        if at is None:
            at = self.vnow
        else:
            self.advance(at)
        self.eager_events.append(TraceEvent(at, kind, layer, fields))

    def on_syscall(self, role, record):
        self.emit("syscall", "mve", role=role, name=record.name.value,
                  fd=record.fd, nbytes=len(record.data))
        self.metrics.counter("syscalls.total").inc()
        self.metrics.counter(f"syscalls.{role}").inc()

    def on_kernel(self, phase, op, domain, fd=-1):
        self.emit(f"kernel.{phase}", "kernel", op=op, domain=domain, fd=fd)
        if phase == "enter":
            self.metrics.counter("kernel.syscalls").inc()

    def kind_tally(self):
        return dict(Counter(event.kind for event in self.events))

    def to_jsonl_lines(self):
        lines = [json.dumps({"schema": TRACE_SCHEMA,
                             "experiment": self.experiment,
                             "events": len(self.events)})]
        lines.extend(json.dumps(event.as_dict()) for event in self.events)
        lines.append(json.dumps({"at": self.vnow, "kind": "metrics.snapshot",
                                 "layer": "obs",
                                 "metrics": self.metrics.snapshot()}))
        return lines


_ats = st.integers(min_value=0, max_value=10**12)
_counts = st.integers(min_value=0, max_value=10**6)
_names = st.sampled_from(["a", "b", "ring", "read", "kvstore-2.0", ""])
_roles = st.sampled_from(["direct", "recording", "replay"])
_scalars = st.one_of(st.none(), st.booleans(), _counts, st.text(max_size=8),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.binary(max_size=8), st.sampled_from(ControlKind),
                     st.sampled_from(Sys), st.builds(object))
# Everything ``jsonable`` has a branch for, nested.
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)
_fields = st.dictionaries(
    st.sampled_from(["ns", "detail", "old", "new", "value", "fault"]),
    _values, max_size=4)
_records = st.tuples(st.sampled_from(Sys),
                     st.integers(min_value=-1, max_value=64),
                     st.binary(max_size=16)).map(lambda f: SyscallRecord(*f))
_bundles = st.builds(types.SimpleNamespace, at=_ats, reason=_names,
                     ring_last_k=st.lists(_counts, max_size=4))


def _call(hook, *args, **kwargs):
    return st.tuples(st.just(hook), st.tuples(*args),
                     st.fixed_dictionaries(kwargs))


_ns_fields = st.fixed_dictionaries({}, optional={"ns": _counts,
                                                  "entries": _counts})

#: One call of every ``on_*`` hook, ``emit`` (with and without ``at``)
#: and ``advance``.
_calls = st.one_of(
    _call("advance", _ats),
    st.tuples(st.just("emit"), st.tuples(_names, _names, st.none() | _ats),
              _fields),
    _call("on_syscall", _roles, _records),
    _call("on_kernel", st.sampled_from(["enter", "exit"]), _names, _counts),
    _call("on_kernel", st.sampled_from(["enter", "exit"]), _names, _counts,
          st.integers(min_value=-1, max_value=64)),
    _call("on_sim_event", _ats, _counts),
    _call("on_ring_publish", _ats, _counts, _counts, _counts),
    _call("on_ring_replay", _ats, _counts, _counts),
    _call("on_ring_stall", _ats, _counts),
    _call("on_ring_frame", _ats, _counts, _counts, _counts, _counts, _ats),
    _call("on_ring_resync", _ats, _counts),
    _call("on_rules_applied", _counts, _counts, st.lists(_names, max_size=3)),
    _call("on_divergence_check", _ats, st.booleans(), _counts),
    _call("on_divergence_check", _ats, st.booleans(), _counts, _names),
    _call("on_forensics", _bundles),
    st.tuples(st.just("on_dsu"),
              st.tuples(st.sampled_from(["request", "quiesce", "xform",
                                         "applied"]), _ats), _ns_fields),
    _call("on_stream_record", _ats, _counts),
    _call("on_control", st.sampled_from(["promote", "demote"]), _ats, _names),
    st.tuples(st.just("on_fleet"),
              st.tuples(st.sampled_from(["canary", "wave"]), _ats),
              _ns_fields),
    _call("on_chaos", _ats, _names, _names, call_index=_counts,
          stage=_names),
)


@given(calls=st.lists(_calls, max_size=40))
@settings(max_examples=150, deadline=None)
def test_flat_log_reads_back_as_the_eager_tracer_would(calls):
    flat = Tracer(experiment="p")
    eager = EagerTracer(experiment="p")
    for position, (hook, args, kwargs) in enumerate(calls):
        getattr(flat, hook)(*args, **kwargs)
        getattr(eager, hook)(*args, **kwargs)
        if position % 7 == 3:       # reading mid-run must change nothing
            assert flat.events == eager.events
    assert flat.vnow == eager.vnow
    assert flat.event_count == len(eager.events)
    assert flat.events == eager.events
    assert flat.events is flat.events
    assert list(flat.kind_tally().items()) == \
        list(eager.kind_tally().items())
    assert flat.to_jsonl_lines() == eager.to_jsonl_lines()
    # Same names in the same order, registry and snapshot both.
    assert list(flat.metrics._metrics) == list(eager.metrics._metrics)
    assert json.dumps(flat.metrics.snapshot()) == \
        json.dumps(eager.metrics.snapshot())


# -- metrics registry -------------------------------------------------------

def test_metrics_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(7)
    registry.gauge("g").set(3)
    registry.histogram("h").observe(10)
    registry.histogram("h").observe(20)

    snapshot = registry.snapshot()
    assert snapshot["c"] == {"type": "counter", "value": 5}
    assert snapshot["g"] == {"type": "gauge", "value": 3, "max": 7}
    assert snapshot["h"]["count"] == 2
    assert snapshot["h"]["total"] == 30
    assert snapshot["h"]["min"] == 10
    assert snapshot["h"]["max"] == 20
    assert snapshot["h"]["mean"] == 15.0


def test_metrics_name_is_bound_to_one_type():
    registry = MetricsRegistry()
    registry.counter("name")
    with pytest.raises(TypeError):
        registry.gauge("name")


# -- the active tracer ------------------------------------------------------

def test_install_and_uninstall_tracer():
    assert OBS.tracer is None
    tracer, spans = Tracer(), SpanCollector()
    with observing(tracer=tracer):
        assert OBS.tracer is tracer
        # A tracer brings no collector: spans are their own observer.
        assert OBS.spans is None
        with observing(spans=spans):
            assert (OBS.tracer, OBS.spans) == (tracer, spans)
        assert OBS.spans is None
    assert OBS.tracer is None and OBS.spans is None


def test_tracing_context_manager_restores_previous():
    outer, inner = Tracer(), Tracer()
    with observing(tracer=outer):
        with observing(tracer=inner):
            assert OBS.tracer is inner
        assert OBS.tracer is outer
    assert OBS.tracer is None


def test_attach_binds_tracer_to_kernel(kernel):
    # The kernel predates the tracer and holds no hook of its own; its
    # syscalls are seen all the same, and only inside the block.
    tracer = Tracer()
    domain = kernel.create_domain()
    with observing(tracer=tracer):
        kernel.listen(domain, ("late", 1))
    kernel.epoll_create(domain)
    kernel.listen(domain, ("later", 1))
    assert tracer.kind_tally() == {"kernel.enter": 1, "kernel.exit": 1}


# -- JSONL schema -----------------------------------------------------------

def test_jsonl_round_trip_is_schema_valid():
    tracer = Tracer(experiment="unit")
    tracer.emit("syscall", "mve", at=1, name="read")
    tracer.metrics.counter("syscalls.total").inc()
    lines = tracer.to_jsonl_lines()

    assert validate_trace_lines(lines) == []
    header = json.loads(lines[0])
    assert header["schema"] == TRACE_SCHEMA
    assert header["experiment"] == "unit"
    assert header["events"] == 1
    last = json.loads(lines[-1])
    assert last["kind"] == "metrics.snapshot"
    assert last["metrics"]["syscalls.total"]["value"] == 1


def test_validate_trace_lines_flags_problems():
    assert validate_trace_lines([]) == ["trace is empty"]
    assert any("schema" in problem for problem in validate_trace_lines(
        ['{"schema": "bogus/9"}', '{"kind": "metrics.snapshot", '
         '"at": 0, "layer": "obs", "metrics": {}}']))
    # Non-integer 'at' and a missing final snapshot both surface.
    lines = [json.dumps({"schema": TRACE_SCHEMA, "experiment": "",
                         "events": 1}),
             json.dumps({"at": "soon", "kind": "x", "layer": "sim"})]
    problems = validate_trace_lines(lines)
    assert any("'at'" in problem for problem in problems)
    assert any("metrics.snapshot" in problem for problem in problems)


def test_validate_trace_lines_never_raises_on_non_object_json():
    # Valid JSON that is not an object is a problem, not a traceback.
    header = json.dumps({"schema": TRACE_SCHEMA, "experiment": "",
                         "events": 1})
    snapshot = json.dumps({"at": 0, "kind": "metrics.snapshot",
                           "layer": "obs", "metrics": {}})
    problems = validate_trace_lines(["[]", "42"])
    assert any("schema" in problem for problem in problems)
    assert "last line is not a metrics.snapshot" in problems
    assert "line 2: not an object" in \
        validate_trace_lines([header, "42", snapshot])
    # The header's event count is checked against the lines present.
    declared_five = json.dumps({"schema": TRACE_SCHEMA, "events": 5})
    assert any("declares 5 events but the file has 0 event lines "
               "(truncated?)" in problem for problem in
               validate_trace_lines([declared_five, snapshot]))
    event = json.dumps({"at": 1, "kind": "sim.event", "layer": "sim"})
    assert validate_trace_lines([header, event, snapshot]) == []


def test_write_jsonl_and_validate_file(tmp_path):
    from repro.obs import validate_trace_file
    tracer = Tracer(experiment="file")
    tracer.emit("sim.event", "sim", at=2)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    assert validate_trace_file(str(path)) == []


# -- end-to-end through the stack -------------------------------------------

def test_attached_tracer_sees_the_whole_lifecycle(kernel, mvedsua, client):
    # Installed after kernel, server, runtime and client were all built.
    tracer = Tracer(experiment="lifecycle")
    with observing(tracer=tracer):
        client.command(mvedsua, b"PUT balance 1000")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        client.command(mvedsua, b"GET balance", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        client.command(mvedsua, b"GET balance", now=4 * SECOND)
        mvedsua.finalize(5 * SECOND)

    kinds = set(tracer.kind_tally())
    assert {"syscall", "ring.publish", "ring.replay",
            "divergence.check", "dsu.request", "dsu.applied",
            "control.promote"} <= kinds
    snapshot = tracer.metrics.snapshot()
    assert snapshot["syscalls.total"]["value"] > 0
    assert snapshot["divergence.checks"]["value"] > 0
    assert "ring.occupancy" in snapshot
    # The whole trace is timestamped in virtual nanoseconds.
    assert all(event.at >= 0 for event in tracer.events)
    assert validate_trace_lines(tracer.to_jsonl_lines()) == []


# -- satellite: virtual timestamps on events and errors ---------------------

def test_control_event_describe_legacy_form():
    assert ControlEvent(ControlKind.PROMOTE).describe() == "<control:promote>"
    assert ControlEvent(ControlKind.TERMINATE).describe() == \
        "<control:terminate>"


def test_control_event_describe_carries_time_and_version():
    event = ControlEvent(ControlKind.PROMOTE, at=7 * SECOND, version="v2")
    assert event.describe() == f"<control:promote at={7 * SECOND} by=v2>"
    assert ControlEvent(ControlKind.PROMOTE, at=3).describe() == \
        "<control:promote at=3>"
    assert ControlEvent(ControlKind.PROMOTE, version="v1").describe() == \
        "<control:promote by=v1>"
