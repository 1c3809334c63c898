"""The run log: one writer for every trace event, span and stream record.

One :class:`Tracer` keeps one ordered log of a run, and the slots it is
installed in decide what goes into it: ``repro.sites.observing(
tracer=log)`` logs trace events, ``observing(spans=log)`` logs spans,
``observing(recorder=log)`` logs the leader's syscall stream, and a
writer in several slots logs all of it, correlated, into one artifact —
``python -m repro trace`` and every ``--trace PATH`` flag install it in
the tracer and spans slots (``trace --record`` adds the recorder slot);
the SLO and open-loop cells install it as spans only, ``chaos --record``
as the recorder only.  The design constraint is the paper's: the common
case is *no* observer, and then every hook is one attribute load plus
an ``is None`` test.  Nor does a writer change the path it watches:
the tracer slot reads one event-loop iteration at a time, as the
monitor does, so no kernel or gateway call consults it.

The log holds three kinds of record:

* a **trace event** — "what happened, in order" — is a zero-length
  record.  A site that knows the virtual time passes it as ``at=``;
  one that does not — an ``iteration`` event, one per event-loop
  iteration with its syscalls as ``(name, fd, nbytes)`` triples — takes
  the run clock (``repro.sites.OBS.vnow``, moved by the sites where work
  starts, never by an observer).  It carries its dynamic-extent parent,
  the innermost open span.
* a **span** (:class:`Span`) — "what caused this request's latency" —
  is an interval of virtual time with a causal parent link, stamped
  with the run's upgrade phase (``OBS.phase``) at creation.  A request
  span owns the ring-stall waits served inside it, so an SLO report can
  walk from a violated request down to its dominant wait
  (:mod:`repro.obs.slo`).
* a **stream record** (``stream.*``, layer ``replay``) is an event the
  MVE runtime that *claimed* the writer logs through the recorder slot:
  one ``stream.claim`` with what replay needs to rebuild the follower,
  then one ``stream.record`` per leader iteration with its syscall
  records before rewrite rules, and a ``stream.promote`` /
  ``stream.crash-promote`` wherever leadership changed.  Each carries
  ``len``, the canonical-JSON byte length of its payload, so an
  in-place edit is caught before replay uses the record
  (:mod:`repro.replay.stream` reads the stream back).

Parenting uses **dynamic extent**: :meth:`Tracer.open` pushes a span,
:meth:`Tracer.close` pops it, and any record created in between gets the
stack top as its parent; a known interval (a ring stall is ``[t,
freed_at]`` the moment it resolves) is :meth:`Tracer.add`-ed born
closed, with ``parent=`` when it belongs to another span.  Either way a
parent precedes its child, and a span's id is its 1-based position
among the log's spans.

The log is the writer's only record: :class:`TraceEvent` objects, kind
tallies, JSONL lines and the metrics (:data:`METRICS` folded over the
events) are built from it only when someone reads them.  It exports as
JSONL, schema ``repro-run/1`` (``docs/observability.md``): a header, one
line per record in log order, and a closing ``metrics.snapshot`` line.
Record hygiene (unclosed spans, parents that do not precede their
child, ids out of order) is the MVE9xx lint's job
(:mod:`repro.analysis.trace_lint`).

Standard library, :mod:`repro.report`, :mod:`repro.sites` and
:mod:`repro.obs.metrics` only, so any layer of the stack can depend on
it without cycles; the runtime and its records are read duck-typed.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from repro.obs.metrics import Histogram
from repro.report import (ANY, INT, NAT, POS, TEXT, MapOf, Obj, Opt, Via,
                          canonical, const, jsonl_file_problems,
                          jsonl_problems, one_of, problems)
from repro.sites import OBS, PHASES, kinds

#: JSONL run-log schema identifier (bump on shape changes).
RUN_SCHEMA = "repro-run/1"

#: Span kinds during which the update pauses request service.
PAUSE_KINDS = ("dsu.quiesce", "dsu.fork")


def jsonable(value: Any) -> Any:
    """Best-effort conversion of event field values to JSON-ready data.

    Bytes become latin-1 strings with non-printables escaped; enums use
    their ``value``; tuples become lists; mappings become dicts.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.decode("latin-1").encode("unicode_escape") \
            .decode("ascii")
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if hasattr(value, "value") and not callable(value.value):  # enums
        return jsonable(value.value)
    return repr(value)


def serialize_record(record: Any) -> Dict[str, Any]:
    """One ring payload as a stream record, a ring frame and a
    forensics bundle hold it (reversible:
    :func:`repro.net.ring_wire.decode_records`).  A syscall record's
    payload bytes are latin-1 text; a tuple result is tagged ``{"t":
    [...]}`` and a bytes result ``{"b": latin-1}`` so both come back as
    they went in.  A control event (the one payload that is no
    ``SyscallRecord`` tuple) is ``{"ctl", "at", "version"}``, an unknown
    time or version left out."""
    if not isinstance(record, tuple):
        control: Dict[str, Any] = {"ctl": record.kind.value}
        if record.at is not None:
            control["at"] = record.at
        if record.version is not None:
            control["version"] = record.version
        return control
    entry: Dict[str, Any] = {"sys": record.name.value, "fd": record.fd}
    if record.data:
        entry["data"] = record.data.decode("latin-1")
    if record.result is not None:
        entry["result"] = _serialize_result(record.result)
    if record.aux:
        entry["aux"] = {str(k): v for k, v in record.aux.items()}
    return entry


def _serialize_result(result: Any) -> Any:
    if isinstance(result, (list, tuple)):
        return {"t": [_serialize_result(item) for item in result]}
    if isinstance(result, bytes):
        return {"b": result.decode("latin-1")}
    return result


#: The fields every record has that a stream record's ``len`` leaves
#: out: its envelope, and ``len`` itself.
_ENVELOPE = ("kind", "layer", "parent", "len")


def stream_len(record: Dict[str, Any]) -> int:
    """A stream record's ``len``: the byte length of the canonical JSON
    of its payload, every field but :data:`_ENVELOPE`."""
    return len(canonical({key: value for key, value in record.items()
                          if key not in _ENVELOPE}))


@dataclass
class TraceEvent:
    """One trace event, read back from the log."""

    at: int
    kind: str
    layer: str
    fields: Dict[str, Any] = field(default_factory=dict)
    #: The span open around the event when it was logged, if any.
    parent: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        return _event_record(self.at, self.kind, self.layer, self.parent,
                             self.fields.items())


def _event_record(at: int, kind: str, layer: str, parent: Optional[int],
                  items: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    """The JSON-ready ``repro-run/1`` record of one event."""
    payload: Dict[str, Any] = {"at": at, "kind": kind, "layer": layer,
                               "parent": parent}
    for key, value in items:
        payload[key] = jsonable(value)
    return payload


class Span:
    """One interval of virtual time with a causal parent link."""

    __slots__ = ("span_id", "parent_id", "kind", "layer", "start_ns",
                 "end_ns", "phase", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], kind: str,
                 layer: str, start_ns: int, end_ns: Optional[int] = None,
                 phase: str = PHASES[0],
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.layer = layer
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.phase = phase
        self.attrs = attrs if attrs is not None else {}

    def overlap_ns(self, start_ns: int, end_ns: int) -> int:
        """How much of ``[start_ns, end_ns]`` this (closed) span covers."""
        if self.end_ns is None:
            return 0
        return max(0, min(self.end_ns, end_ns) - max(self.start_ns,
                                                     start_ns))

    def as_dict(self) -> Dict[str, Any]:
        """The JSON-ready ``repro-run/1`` record of this span."""
        payload: Dict[str, Any] = {
            "at": self.start_ns, "kind": self.kind, "layer": self.layer,
            "parent": self.parent_id, "span": self.span_id,
            "end": self.end_ns, "phase": self.phase}
        payload.update(self.attrs)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.span_id} {self.kind} "
                f"[{self.start_ns}, {self.end_ns}]>")


class Move(NamedTuple):
    """One metric an event moves, a row of :data:`METRICS`.  ``metric``
    is its name, ``{field}`` filled from the event and ``{kind}`` with
    its kind.  A ``counter`` adds ``by``, a ``gauge`` is set to it, a
    ``peak`` gauge to its running maximum, a ``histogram`` observes it;
    ``by`` is a constant or the name of the field holding the value.
    The row moves nothing when the field ``unless`` names is true."""

    metric: str
    how: str
    by: Union[int, str] = 1
    unless: str = ""

    #: The metric's type in the snapshot.
    type = property(lambda self: "gauge" if self.how == "peak" else self.how)


#: What each event kind moves in the metrics snapshot; read by
#: :meth:`Tracer.metrics` and nothing else.  A key ending in ``.*``
#: covers every kind with that prefix.  A row that reads a field the
#: event lacks moves nothing.
METRICS: Dict[str, Tuple[Move, ...]] = {
    "iteration": (Move("syscalls.total", "counter", "count"),
                  Move("syscalls.{role}", "counter", "count")),
    "sim.event": (Move("sim.events", "counter"),),
    "ring.publish": (Move("ring.published", "counter", "count"),
                     Move("ring.occupancy", "gauge", "occupancy"),
                     Move("ring.high_watermark", "peak", "occupancy")),
    "ring.replay": (Move("ring.replayed", "counter", "count"),
                    Move("rules.records_in", "counter", "count"),
                    Move("rules.dispatch_hits", "counter", 0),
                    Move("ring.occupancy", "gauge", "occupancy")),
    "rule.fired": (Move("rules.dispatch_hits", "counter"),),
    "ring.stall": (Move("ring.stalls", "counter"),),
    "net.ring.frame": (Move("ring.frames", "counter"),
                       Move("ring.inflight", "gauge", "inflight")),
    "net.ring.resync": (Move("ring.resync", "counter"),),
    "divergence.check": (Move("divergence.checks", "counter"),
                         Move("divergence.detected", "counter",
                              unless="ok")),
    "stream.record": (Move("stream.recorded", "counter", "count"),),
    "chaos.inject": (Move("chaos.injected", "counter"),
                     Move("chaos.site.{site}", "counter")),
    "dsu.*": (Move("{kind}", "counter"),),
    "dsu.quiesce": (Move("dsu.quiescence_wait_ns", "histogram", "ns"),),
    "dsu.xform": (Move("dsu.xform_ns", "histogram", "ns"),),
    "control.*": (Move("{kind}", "counter"),),
    "fleet.*": (Move("{kind}", "counter"),),
}


def moves(kind: str) -> Tuple[Move, ...]:
    """The rows of :data:`METRICS` an event of ``kind`` moves."""
    return METRICS.get(kind.partition(".")[0] + ".*", ()) \
        + METRICS.get(kind, ())


class Tracer:
    """The run log's writer: trace events from the tracer slot, spans
    from the spans slot, stream records from the recorder slot, one
    ordered log whatever the mix.

    The tracer slot's unit is the event-loop iteration: a runtime logs
    one ``iteration`` event per leader iteration, follower replay or
    native iteration, carrying its syscalls as ``(name, fd, nbytes)``
    triples; no single kernel or gateway call is logged.

    Tests that pin the disabled path count this class's construction,
    its log appends and :class:`TraceEvent` builds by wrapping those
    methods for the block (``tests/counting.py``).
    """

    def __init__(self, experiment: str = "") -> None:
        self.experiment = experiment
        #: Every record in order: a span is its :class:`Span`, an event
        #: one flat tuple ``(at, kind, layer, parent, field_names,
        #: *field_values)``.
        self._log: List[Any] = []
        #: The spans alone, in creation order; a span's id is its 1-based
        #: position here, which is how parent links are followed.
        self.spans: List[Span] = []
        #: The same spans by kind (kinds in first-appearance order).
        self._by_kind: Dict[str, List[Span]] = defaultdict(list)
        self._stack: List[Span] = []
        self._events: List[TraceEvent] = []
        #: How much of the log :attr:`events` has read.
        self._read = 0
        #: The runtime whose stream the recorder slot logs (see
        #: :meth:`claim`), by weakref.
        self._claimed_by: Optional[weakref.ref] = None
        #: Log positions of the stream records whose ``len`` is not
        #: filled in yet (:meth:`_sized`).
        self._unsized: List[int] = []

    # -- trace events (the tracer slot) -------------------------------------

    def emit(self, kind: str, layer: str, at: Optional[int] = None,
             **fields: Any) -> None:
        """Log one event; ``at=None`` stamps the run clock.

        Call sites guard with ``if tracer is not None:`` and then call
        this once per event."""
        stack = self._stack
        self._log.append((OBS.vnow if at is None else at, kind, layer,
                          stack[-1].span_id if stack else None,
                          tuple(fields), *fields.values()))

    # -- stream records (the recorder slot) ---------------------------------

    def claim(self, runtime: Any) -> bool:
        """Log ``runtime``'s stream, if no runtime holds the claim yet.

        :class:`~repro.mve.varan.VaranRuntime` asks on construction and
        keeps the writer only when this returns True: the first MVE
        group built while the writer is in the recorder slot wins, so
        scenarios that build several record one coherent stream.  The
        claim is held by weakref — not ``id()`` — so a later runtime
        allocated at a dead claimant's address cannot falsely win; once
        the claimant dies the claim stays closed.  Winning logs
        ``stream.claim``: the app (the leader version's own ``app``, the
        catalog key), initial leader version, cost profile, ring
        capacity, the fd labels a replayed candidate must use so its
        epoll/accept calls name the leader's fds, and the fault plan in
        force.
        """
        if self._claimed_by is not None:
            return self._claimed_by() is runtime
        self._claimed_by = weakref.ref(runtime)
        chaos = OBS.chaos
        fault_plan = None
        if chaos is not None and getattr(chaos.plan, "faults", ()):
            fault_plan = chaos.plan.as_dict()
        server = runtime.leader.server
        self._stream("stream.claim", OBS.vnow, app=server.version.app,
                     initial_version=runtime.leader.version_name,
                     profile=getattr(runtime.profile, "name", ""),
                     ring_capacity=runtime.ring.capacity,
                     listen_fd=getattr(server, "listen_fd", 0),
                     epoll_fd=getattr(server, "epoll_fd", 1),
                     fault_plan=fault_plan)
        return True

    def on_iteration(self, at: int, version: str, mve: bool,
                     records: Sequence[Any]) -> None:
        """The claimant's leader completed one iteration (``records``
        before rewrite rules: one recording replays against any
        candidate the app's rules bridge)."""
        self._stream("stream.record", at, version=version, mve=mve,
                     count=len(records),
                     records=[serialize_record(record)
                              for record in records])

    def on_promote(self, kind: str, at: int, version: str,
                   new_leader: str) -> None:
        """A ``promote`` or ``crash-promote`` changed which version
        leads the claimant."""
        self._stream(f"stream.{kind}", at, version=version,
                     new_leader=new_leader)

    def _stream(self, kind: str, at: int, **fields: Any) -> None:
        """Log one stream record.  Its ``len`` is left for
        :meth:`_sized` to fill in when the log is read, so recording
        encodes no JSON."""
        stack = self._stack
        self._unsized.append(len(self._log))
        self._log.append((at, kind, "replay",
                          stack[-1].span_id if stack else None,
                          (*fields, "len"), *fields.values(), None))

    def _sized(self) -> List[Any]:
        """The log, with every stream record's ``len`` filled in."""
        log = self._log
        for index in self._unsized:
            entry = log[index]
            payload = dict(zip(entry[4], entry[5:]), at=entry[0])
            log[index] = (*entry[:-1], stream_len(payload))
        self._unsized.clear()
        return log

    # -- spans (the spans slot) ---------------------------------------------

    def _new_span(self, kind: str, layer: str, start_ns: int,
                  end_ns: Optional[int], parent: Optional[int],
                  attrs: Dict[str, Any]) -> Span:
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(len(self.spans) + 1, parent, kind, layer, start_ns,
                    end_ns, OBS.phase, attrs)
        self.spans.append(span)
        self._by_kind[kind].append(span)
        self._log.append(span)
        return span

    def open(self, kind: str, layer: str, at: int,
             **attrs: Any) -> Span:
        """Start a span; records created before :meth:`close` become its
        children."""
        span = self._new_span(kind, layer, at, None, None, attrs)
        self._stack.append(span)
        return span

    def close(self, span: Span, at: int, **attrs: Any) -> Span:
        """End an open span (must be the innermost open one)."""
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(f"span {span.span_id} is not the innermost "
                             f"open span")
        self._stack.pop()
        span.end_ns = at
        span.attrs.update(attrs)
        return span

    def add(self, kind: str, layer: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None, **attrs: Any) -> Span:
        """Record a known interval as a born-closed span.

        ``parent`` overrides the dynamic-extent parent (the innermost
        open span, if any).
        """
        return self._new_span(kind, layer, start_ns, end_ns, parent, attrs)

    # -- reading the log ----------------------------------------------------

    def _event_entries(self) -> Iterator[Tuple[Any, ...]]:
        return (entry for entry in self._log if type(entry) is tuple)

    @property
    def event_count(self) -> int:
        """Events logged so far (builds nothing)."""
        return len(self._log) - len(self.spans)

    @property
    def events(self) -> List[TraceEvent]:
        """Every event so far, in order, as :class:`TraceEvent` objects:
        built from the log on read, each entry once, so a run that never
        looks pays for none."""
        fresh = [TraceEvent(at, kind, layer, dict(zip(names, values)),
                            parent)
                 for at, kind, layer, parent, names, *values
                 in (entry for entry in self._sized()[self._read:]
                     if type(entry) is tuple)]
        self._read = len(self._log)
        self._events.extend(fresh)
        return self._events

    def kind_tally(self) -> Dict[str, int]:
        """Event counts per kind (for summaries and tests)."""
        return dict(Counter(entry[1] for entry in self._event_entries()))

    def span_tally(self) -> Dict[str, int]:
        """Span counts per kind, kinds in first-appearance order."""
        return {kind: len(spans) for kind, spans in self._by_kind.items()}

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def of_kind(self, kind: str) -> Sequence[Span]:
        """The spans of one kind, in creation order (a view of the
        writer's index, not a copy)."""
        return self._by_kind.get(kind, ())

    def request_spans(self) -> List[Span]:
        """All ``request`` spans, in creation order."""
        return list(self.of_kind("request"))

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """The metrics snapshot, sorted by name: :data:`METRICS` folded
        over the events."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, List[int]] = {}
        histograms: Dict[str, Histogram] = {}
        for entry in self._event_entries():
            fields = dict(zip(entry[4], entry[5:]), kind=entry[1])
            for metric, how, by, unless in moves(entry[1]):
                try:
                    name = metric.format_map(fields)
                    value = fields[by] if isinstance(by, str) else by
                except KeyError:
                    continue  # the event lacks a field the row reads
                if unless and fields.get(unless, True):
                    continue
                if how == "counter":
                    counters[name] = counters.get(name, 0) + value
                elif how == "histogram":
                    histograms.setdefault(name, Histogram(name)) \
                        .observe(value)
                else:
                    gauge = gauges.setdefault(name, [0, 0])
                    gauge[0] = max(gauge[0], value) if how == "peak" \
                        else value
                    gauge[1] = max(gauge[1], value)
        snapshot = {name: {"type": "counter", "value": value}
                    for name, value in counters.items()}
        snapshot.update((name, {"type": "gauge", "value": value,
                                "max": peak})
                        for name, (value, peak) in gauges.items())
        snapshot.update((name, histogram.as_dict())
                        for name, histogram in histograms.items())
        return dict(sorted(snapshot.items()))

    def _jsonl_lines(self) -> Iterator[str]:
        yield json.dumps({"schema": RUN_SCHEMA,
                          "experiment": self.experiment,
                          "records": len(self._log)})
        for entry in self._sized():
            if type(entry) is tuple:
                at, kind, layer, parent, names, *values = entry
                yield json.dumps(_event_record(at, kind, layer, parent,
                                               zip(names, values)))
            else:
                yield json.dumps(entry.as_dict())
        yield json.dumps({"kind": "metrics.snapshot",
                          "metrics": self.metrics()})

    def to_jsonl_lines(self) -> List[str]:
        """The full log as JSONL lines (header, records, metrics)."""
        return list(self._jsonl_lines())

    def write(self, path: str) -> int:
        """Write the log to ``path``, one JSON object per line, a line at
        a time; returns the lines written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in self._jsonl_lines())
        return len(self._log) + 2


# ---------------------------------------------------------------------------
# Schema validation (shape only; hygiene is the MVE9xx lint's job)
# ---------------------------------------------------------------------------

#: A ``repro-run/1`` header, event record, span record (a record with a
#: ``span`` id) and closing snapshot line.
RUN_HEADER_SHAPE = Obj({"schema": const(RUN_SCHEMA), "records": NAT})
EVENT_SHAPE = Obj({"at": INT, "kind": one_of(kinds("events")),
                   "layer": TEXT, "parent": Opt(POS)})
SPAN_SHAPE = Obj({"at": INT, "kind": one_of(kinds("spans")), "layer": TEXT,
                  "parent": Opt(POS), "span": POS, "end": Opt(INT),
                  "phase": one_of(PHASES)})
SNAPSHOT_SHAPE = Obj({"kind": const("metrics.snapshot"),
                      "metrics": MapOf(ANY)})
_RECORD = Via(Obj({}), lambda record: problems(
    record, SPAN_SHAPE if "span" in record else EVENT_SHAPE))


def validate_lines(lines: List[str]) -> List[str]:
    """Problems with ``repro-run/1`` lines (empty = valid): a
    :data:`RUN_HEADER_SHAPE`, as many records as it says, each an
    :data:`EVENT_SHAPE` or a :data:`SPAN_SHAPE`, then the metrics
    snapshot."""
    if len(lines) < 2:
        return ["run log has no metrics snapshot line" if lines
                else "run log is empty"]
    found = jsonl_problems(lines, RUN_HEADER_SHAPE, "records", _RECORD,
                           closing=SNAPSHOT_SHAPE)
    if any(problem.startswith(f"line {len(lines)}:") for problem in found):
        found.append("last line is not a metrics.snapshot")
    return found


def validate_file(path: str) -> List[str]:
    """Validate a ``repro-run/1`` JSONL file; returns a list of problems."""
    return jsonl_file_problems(path, validate_lines)
