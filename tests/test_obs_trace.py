"""repro.obs.trace / repro.obs.metrics: the run log's event records,
the run clock they are stamped with, and the metrics folded from them."""

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mve.events import ControlEvent, ControlKind
from repro.obs import (
    RUN_SCHEMA,
    Histogram,
    Tracer,
    validate_lines,
)
from repro.obs.trace import METRICS, TraceEvent, jsonable, moves
from repro.servers.kvstore import KVStoreV2, kv_rules
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.sites import OBS, kinds, observing
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import Sys, SyscallRecord


# -- core emission ----------------------------------------------------------

def test_emit_stamps_the_run_clock_and_never_moves_it():
    tracer = Tracer(experiment="t")
    with observing(tracer=tracer):
        OBS.vnow = 10                       # a site where work starts
        # No explicit timestamp: the run clock.
        tracer.emit("b", "sim")
        assert tracer.events[-1].at == 10
        # An explicit one is the event's own, and moves nothing.
        tracer.emit("c", "sim", at=30)
        tracer.emit("late", "sim", at=5)
        assert [event.at for event in tracer.events] == [10, 30, 5]
        tracer.emit("d", "sim")
        assert (tracer.events[-1].at, OBS.vnow) == (10, 10)


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


# -- the flat log and its fold against the eager reference ------------------

class _Counter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def as_dict(self):
        return {"type": "counter", "value": self.value}


class _Gauge:
    def __init__(self):
        self.value = self.max_value = 0

    def set(self, value):
        self.value = value
        self.max_value = max(self.max_value, value)

    def as_dict(self):
        return {"type": "gauge", "value": self.value, "max": self.max_value}


class _Registry:
    """The metrics registry the tracer kept before the fold: metrics
    created on first touch by name, one type per name."""

    def __init__(self):
        self.metrics = {}

    def _get(self, name, cls):
        metric = self.metrics.setdefault(
            name, Histogram(name) if cls is Histogram else cls())
        if not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} changes type")
        return metric

    def counter(self, name):
        return self._get(name, _Counter)

    def gauge(self, name):
        return self._get(name, _Gauge)

    def histogram(self, name):
        return self._get(name, Histogram)

    def snapshot(self):
        return {name: metric.as_dict()
                for name, metric in sorted(self.metrics.items())}


class EagerTracer(Tracer):
    """The tracer before the flat log and the fold, kept as the
    reference: one :class:`TraceEvent` (and its kwargs dict) built per
    event at emission, readers walking the event objects, and one hook
    per site that emits and bumps a registry's counters, gauges and
    histograms by name.  Every ``emit`` call is also kept in
    ``emitted``, so a flat tracer can be handed what a site now calls.
    An event without ``at`` is stamped with the run clock, as the flat
    log does; with no span open, its parent is null."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.eager_events = []
        self.emitted = []
        self.registry = _Registry()
        #: The one ring's own high watermark.
        self.ring_peak = 0

    events = property(lambda self: self.eager_events)

    def metrics(self):
        return self.registry.snapshot()

    def emit(self, kind, layer, at=None, **fields):
        self.emitted.append((kind, layer, at, fields))
        if at is None:
            at = OBS.vnow
        self.eager_events.append(TraceEvent(at, kind, layer, fields))

    def on_run_iteration(self, role, version, records):
        """A runtime ran one event-loop iteration issuing ``records``."""
        calls = [(record.name.value, record.fd, len(record.data))
                 for record in records]
        self.emit("iteration", "mve", role=role, version=version,
                  count=len(calls), calls=calls)
        self.registry.counter("syscalls.total").inc(len(calls))
        self.registry.counter(f"syscalls.{role}").inc(len(calls))

    def on_sim_event(self, at, pending):
        self.emit("sim.event", "sim", at=at, pending=pending)
        self.registry.counter("sim.events").inc()

    def on_ring_publish(self, at, count, occupancy):
        self.ring_peak = max(self.ring_peak, occupancy)
        self.emit("ring.publish", "mve", at=at, count=count,
                  occupancy=occupancy)
        self.registry.counter("ring.published").inc(count)
        self.registry.gauge("ring.occupancy").set(occupancy)
        self.registry.gauge("ring.high_watermark").set(self.ring_peak)

    def on_replay(self, at, count, occupancy, fired):
        """One ``_replay_one``: the rule engine's tally, then the ring's."""
        self.registry.counter("rules.records_in").inc(count)
        self.registry.counter("rules.dispatch_hits").inc(len(fired))
        for name in fired:
            self.emit("rule.fired", "mve", rule=name)
        self.emit("ring.replay", "mve", at=at, count=count,
                  occupancy=occupancy)
        self.registry.counter("ring.replayed").inc(count)
        self.registry.gauge("ring.occupancy").set(occupancy)

    def on_ring_stall(self, at, capacity):
        self.emit("ring.stall", "mve", at=at, capacity=capacity)
        self.registry.counter("ring.stalls").inc()

    def on_ring_frame(self, at, sequence, count, n_bytes, inflight,
                      deliver_at):
        self.emit("net.ring.frame", "net", at=at, sequence=sequence,
                  count=count, bytes=n_bytes, inflight=inflight,
                  deliver_at=deliver_at)
        self.registry.counter("ring.frames").inc()
        self.registry.gauge("ring.inflight").set(inflight)

    def on_ring_resync(self, at, resyncs):
        self.emit("net.ring.resync", "net", at=at, resyncs=resyncs)
        self.registry.counter("ring.resync").inc()

    def on_forensics(self, bundle):
        self.emit("divergence.forensics", "mve", at=bundle["at"],
                  bundle=bundle)

    def on_divergence_check(self, at, ok, records, detail=""):
        self.emit("divergence.check", "mve", at=at, ok=ok, records=records,
                  detail=detail)
        self.registry.counter("divergence.checks").inc()
        if not ok:
            self.registry.counter("divergence.detected").inc()

    def on_dsu(self, kind, at, **fields):
        self.emit(f"dsu.{kind}", "dsu", at=at, **fields)
        self.registry.counter(f"dsu.{kind}").inc()
        if kind == "quiesce" and "ns" in fields:
            self.registry.histogram("dsu.quiescence_wait_ns") \
                .observe(fields["ns"])
        if kind == "xform" and "ns" in fields:
            self.registry.histogram("dsu.xform_ns").observe(fields["ns"])

    def on_stream_record(self, at, count):
        self.emit("stream.record", "replay", at=at, count=count)
        self.registry.counter("stream.recorded").inc(count)

    def on_control(self, kind, at, version):
        self.emit(f"control.{kind}", "mve", at=at, version=version)
        self.registry.counter(f"control.{kind}").inc()

    def on_fleet(self, kind, at, **fields):
        self.emit(f"fleet.{kind}", "fleet", at=at, **fields)
        self.registry.counter(f"fleet.{kind}").inc()

    def on_chaos(self, at, site, kind, *, call_index=0, stage=""):
        self.emit("chaos.inject", "chaos", at=at, site=site, fault=kind,
                  call_index=call_index, stage=stage)
        self.registry.counter("chaos.injected").inc()
        self.registry.counter(f"chaos.site.{site}").inc()

    def kind_tally(self):
        return dict(Counter(event.kind for event in self.events))

    def to_jsonl_lines(self):
        lines = [json.dumps({"schema": RUN_SCHEMA,
                             "experiment": self.experiment,
                             "records": len(self.events)})]
        lines.extend(json.dumps(event.as_dict()) for event in self.events)
        lines.append(json.dumps({"kind": "metrics.snapshot",
                                 "metrics": self.metrics()}))
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
_bundles = st.fixed_dictionaries({"at": _ats, "reason": _names,
                                   "ring_last_k": st.lists(_counts,
                                                           max_size=4)})


def _call(hook, *args, **kwargs):
    return st.tuples(st.just(hook), st.tuples(*args),
                     st.fixed_dictionaries(kwargs))


_ns_fields = st.fixed_dictionaries({}, optional={"ns": _counts,
                                                  "entries": _counts})

#: One call of every site's hook as it was, of ``emit`` (with and
#: without ``at``), and a site moving the run clock (``tick``).
_calls = st.one_of(
    st.tuples(st.just("tick"), st.tuples(_ats), st.just({})),
    st.tuples(st.just("emit"), st.tuples(_names, _names, st.none() | _ats),
              _fields),
    _call("on_run_iteration", _roles, _names, st.lists(_records, max_size=4)),
    _call("on_sim_event", _ats, _counts),
    _call("on_ring_publish", _ats, _counts, _counts),
    _call("on_replay", _ats, _counts, _counts, st.lists(_names, max_size=3)),
    _call("on_ring_stall", _ats, _counts),
    _call("on_ring_frame", _ats, _counts, _counts, _counts, _counts, _ats),
    _call("on_ring_resync", _ats, _counts),
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
@settings(deadline=None)
def test_flat_log_reads_back_as_the_eager_tracer_would(calls):
    with observing():
        _flat_against_eager(calls)


def _flat_against_eager(calls):
    flat = Tracer(experiment="p")
    eager = EagerTracer(experiment="p")
    for position, (hook, args, kwargs) in enumerate(calls):
        if hook == "tick":
            OBS.vnow = max(OBS.vnow, *args)
            continue
        getattr(eager, hook)(*args, **kwargs)
        if hasattr(Tracer, hook):
            getattr(flat, hook)(*args, **kwargs)
        else:
            # A hook the tracer no longer has: its site calls ``emit``.
            for kind, layer, at, fields in eager.emitted:
                flat.emit(kind, layer, at=at, **fields)
        eager.emitted.clear()
        if position % 7 == 3:       # reading mid-run must change nothing
            assert flat.events == eager.events
    assert flat.event_count == len(eager.events)
    assert flat.events == eager.events
    assert flat.events is flat.events
    assert list(flat.kind_tally().items()) == \
        list(eager.kind_tally().items())
    assert flat.to_jsonl_lines() == eager.to_jsonl_lines()
    # The fold gives the registry's snapshot, key order included.
    assert json.dumps(flat.metrics()) == json.dumps(eager.metrics())


# -- the metrics fold -------------------------------------------------------

def test_metrics_counter_gauge_histogram():
    tracer = Tracer()
    tracer.emit("ring.publish", "mve", count=1, occupancy=7)
    tracer.emit("ring.publish", "mve", count=4, occupancy=3)
    tracer.emit("dsu.quiesce", "dsu", ns=10)
    tracer.emit("dsu.quiesce", "dsu", ns=20)
    tracer.emit("dsu.quiesce", "dsu")   # no ``ns``: moves no histogram

    snapshot = tracer.metrics()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["ring.published"] == {"type": "counter", "value": 5}
    assert snapshot["ring.occupancy"] == \
        {"type": "gauge", "value": 3, "max": 7}
    assert snapshot["dsu.quiesce"] == {"type": "counter", "value": 3}
    assert snapshot["dsu.quiescence_wait_ns"] == {
        "type": "histogram", "count": 2, "total": 30, "min": 10, "max": 20,
        "mean": 15.0}


def test_metrics_name_is_bound_to_one_type():
    # Every declared event kind through the fold's table: no metric name
    # is moved as two types (a field-named family stays one name).
    types = {}
    for kind in kinds("events"):
        for move in moves(kind):
            name = move.metric.replace("{kind}", kind)
            assert types.setdefault(name, move.type) == move.type, name
    assert types["ring.high_watermark"] == types["ring.occupancy"] == \
        "gauge"
    assert types["dsu.xform"] == "counter"
    assert types["dsu.xform_ns"] == "histogram"


def test_high_watermark_is_the_highest_published_occupancy():
    # Two rings publishing under one tracer: the gauge holds the highest
    # occupancy any traced publish left, not the last ring's own mark.
    tracer = Tracer()
    tracer.emit("ring.publish", "mve", count=7, occupancy=7)   # ring A
    tracer.emit("ring.publish", "mve", count=5, occupancy=5)   # ring B
    tracer.emit("ring.replay", "mve", count=5, occupancy=0)
    snapshot = tracer.metrics()
    assert snapshot["ring.high_watermark"] == \
        {"type": "gauge", "value": 7, "max": 7}
    assert snapshot["ring.occupancy"] == \
        {"type": "gauge", "value": 0, "max": 7}
    assert snapshot["rules.dispatch_hits"] == {"type": "counter", "value": 0}


def test_every_fold_row_is_keyed_by_a_declared_event_kind():
    declared = kinds("events")
    for key in METRICS:
        if key.endswith(".*"):
            assert any(kind.startswith(key[:-1]) for kind in declared), key
        else:
            assert key in declared, key


def test_only_the_recorder_hooks_are_more_than_an_emit():
    """Two hooks do more than an ``emit``, the recorder slot's, called
    only on the writer a runtime claimed.  Every tracer-slot site calls
    ``emit`` (a divergence logs its whole bundle as a field), and no
    kernel or gateway call has a hook."""
    hooks = [name for name in vars(Tracer) if name.startswith("on_")]
    assert hooks == ["on_iteration", "on_promote"]


# -- the active tracer ------------------------------------------------------

def test_install_and_uninstall_tracer():
    assert OBS.tracer is None
    tracer, spans = Tracer(), Tracer()
    with observing(tracer=tracer):
        assert OBS.tracer is tracer
        # The tracer slot fills no spans slot: each is its own observer.
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


def test_attach_binds_tracer_to_kernel(kernel, kv_server, client):
    # Kernel calls under a tracer log nothing; a server's event-loop
    # iteration logs one record, read off its gateway's trace by the
    # runtime that ran it.  Everything predates the tracer, and only
    # what runs inside the block is seen.
    runtime = NativeRuntime(kernel, kv_server, PROFILES["kvstore"])
    client.command(runtime, b"PUT a 1")
    tracer = Tracer()
    domain = kernel.create_domain()
    with observing(tracer=tracer):
        kernel.listen(domain, ("late", 1))
        kernel.epoll_create(domain)
        assert tracer.kind_tally() == {}
        assert client.command(runtime, b"GET a") == b"1\r\n"
        records = runtime.gateway.trace.records
    client.command(runtime, b"GET a")
    assert [record.name.value for record in records] == \
        ["epoll_wait", "read", "write"]
    assert tracer.kind_tally() == {"iteration": 1}
    assert tracer.events[0].fields == {
        "role": "direct", "version": kv_server.version.name, "count": 3,
        "calls": [(record.name.value, record.fd, len(record.data))
                  for record in records]}


# -- JSONL schema -----------------------------------------------------------

def test_jsonl_round_trip_is_schema_valid():
    tracer = Tracer(experiment="unit")
    tracer.emit("iteration", "mve", at=1, role="direct", version="1.0",
                count=2, calls=[("read", 4, 7), ("write", 4, 3)])
    lines = tracer.to_jsonl_lines()

    assert validate_lines(lines) == []
    header = json.loads(lines[0])
    assert header["schema"] == RUN_SCHEMA
    assert header["experiment"] == "unit"
    assert header["records"] == 1
    last = json.loads(lines[-1])
    assert last["kind"] == "metrics.snapshot"
    assert last["metrics"]["syscalls.total"]["value"] == 2
    assert last["metrics"]["syscalls.direct"]["value"] == 2
    assert json.loads(lines[1])["calls"] == [["read", 4, 7], ["write", 4, 3]]


def test_validate_trace_lines_flags_problems():
    assert validate_lines([]) == ["run log is empty"]
    assert any("schema" in problem for problem in validate_lines(
        ['{"schema": "bogus/9"}', '{"kind": "metrics.snapshot", '
         '"metrics": {}}']))
    # A missing final snapshot, and a non-integer 'at', both surface.
    lines = [json.dumps({"schema": RUN_SCHEMA, "experiment": "",
                         "records": 1}),
             json.dumps({"at": "soon", "kind": "x", "layer": "sim",
                         "parent": None})]
    assert any("metrics.snapshot" in problem
               for problem in validate_lines(lines))
    problems = validate_lines(
        lines + ['{"kind": "metrics.snapshot", "metrics": {}}'])
    assert any("'at'" in problem for problem in problems)


def test_validate_trace_lines_never_raises_on_non_object_json():
    # Valid JSON that is not an object is a problem, not a traceback.
    header = json.dumps({"schema": RUN_SCHEMA, "experiment": "",
                         "records": 1})
    snapshot = json.dumps({"kind": "metrics.snapshot", "metrics": {}})
    problems = validate_lines(["[]", "42"])
    assert any("schema" in problem for problem in problems)
    assert "last line is not a metrics.snapshot" in problems
    assert "line 2: not an object" in \
        validate_lines([header, "42", snapshot])
    # The header's record count is checked against the lines present.
    declared_five = json.dumps({"schema": RUN_SCHEMA, "records": 5})
    assert any("declares 5 records but the file has 0 record lines "
               "(truncated?)" in problem for problem in
               validate_lines([declared_five, snapshot]))
    event = json.dumps({"at": 1, "kind": "sim.event", "layer": "sim",
                        "parent": None})
    assert validate_lines([header, event, snapshot]) == []
    # An event's parent is a span id, never 0 or text.
    orphan = json.dumps({"at": 1, "kind": "sim.event", "layer": "sim",
                         "parent": 0})
    assert any("'parent'" in problem for problem in
               validate_lines([header, orphan, snapshot]))


def test_write_jsonl_and_validate_file(tmp_path):
    from repro.obs import validate_file
    tracer = Tracer(experiment="file")
    tracer.emit("sim.event", "sim", at=2)
    path = tmp_path / "trace.jsonl"
    assert tracer.write(str(path)) == 3    # header, event, snapshot
    assert validate_file(str(path)) == []


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
    assert {"iteration", "ring.publish", "ring.replay",
            "divergence.check", "dsu.request", "dsu.applied",
            "control.promote"} <= kinds
    snapshot = tracer.metrics()
    assert snapshot["syscalls.total"]["value"] > 0
    assert snapshot["divergence.checks"]["value"] > 0
    assert "ring.occupancy" in snapshot
    # The whole trace is timestamped in virtual nanoseconds.
    assert all(event.at >= 0 for event in tracer.events)
    assert validate_lines(tracer.to_jsonl_lines()) == []


# -- satellite: virtual timestamps on events and errors ---------------------

def test_control_event_describe_legacy_form():
    assert ControlEvent(ControlKind.PROMOTE).describe() == "<control:promote>"
    assert ControlEvent(ControlKind.PROMOTE, at=None,
                        version=None).describe() == "<control:promote>"


def test_control_event_describe_carries_time_and_version():
    event = ControlEvent(ControlKind.PROMOTE, at=7 * SECOND, version="v2")
    assert event.describe() == f"<control:promote at={7 * SECOND} by=v2>"
    assert ControlEvent(ControlKind.PROMOTE, at=3).describe() == \
        "<control:promote at=3>"
    assert ControlEvent(ControlKind.PROMOTE, version="v1").describe() == \
        "<control:promote by=v1>"
