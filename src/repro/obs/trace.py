"""Structured, virtual-time-stamped tracing for the whole stack.

One :class:`Tracer` collects :class:`TraceEvent` records from
instrumentation hooks in the simulation engine, the virtual kernel, the
MVE runtime, and the DSU engine.  The design constraint is the paper's:
the common case is *no* observer, and then tracing must cost nothing.
Every hook therefore reduces to one attribute load plus an ``is None``
test — no wrappers, no decorators, no conditional imports on hot paths.

A tracer watches whatever runs inside ``with
repro.sites.observing(tracer=...)``: every instrumented site reads the
installed tracer when it runs, so it does not matter whether the
deployment was built before or after — ``python -m repro trace``, the
``--trace PATH`` flag and ``examples/operator_console.py`` all enter
that one block.

Timestamps are virtual nanoseconds.  Layers that know the virtual time
(the MVE runtime, the orchestrator) pass it as ``at=``, which also moves
the tracer's clock forward (never back); layers that do not (the
kernel, the gateway) stamp events with that clock, which is exact at
iteration granularity.

With an observer present, an event is one flat tuple appended to the
tracer's log, and the log is the tracer's only record: :class:`TraceEvent`
objects, kind tallies, JSONL lines and the metrics (:data:`METRICS`
folded over the log) are built from it only when someone reads them.

Traces export as JSONL (schema ``repro-trace/1``): a header line, one
line per event, and a final ``metrics.snapshot`` line.  See
``docs/observability.md`` for the full schema and event taxonomy.

This module imports only the standard library, :mod:`repro.report`,
:mod:`repro.sites` and its :mod:`repro.obs` siblings, so any layer of
the stack can depend on it without cycles.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.obs.metrics import Histogram
from repro.report import (ANY, INT, NAT, TEXT, MapOf, Obj, const,
                          jsonl_file_problems, jsonl_problems, one_of)
from repro.sites import kinds

#: JSONL trace schema identifier (bump on shape changes).
TRACE_SCHEMA = "repro-trace/1"


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


@dataclass
class TraceEvent:
    """One structured trace record."""

    at: int
    kind: str
    layer: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return _payload(self.at, self.kind, self.layer, self.fields.items())


def _payload(at: int, kind: str, layer: str,
             items: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    """The JSON-ready form of one event (one ``repro-trace/1`` line)."""
    payload: Dict[str, Any] = {"at": at, "kind": kind, "layer": layer}
    for key, value in items:
        payload[key] = jsonable(value)
    return payload


#: Every site logs through :meth:`Tracer.emit` except the kernel's and
#: the gateway's: they fire ~18 times per request (all others together
#: once), so they append their log entry themselves, with these constant
#: kinds and field names.
_KERNEL_KINDS = {"enter": "kernel.enter", "exit": "kernel.exit"}
_KERNEL_FIELDS = ("op", "domain", "fd")
_SYSCALL_FIELDS = ("role", "name", "fd", "nbytes")


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
    "syscall": (Move("syscalls.total", "counter"),
                Move("syscalls.{role}", "counter")),
    "kernel.enter": (Move("kernel.syscalls", "counter"),),
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


_emitted_total = 0


class _TracerTallies(type):
    #: Trace events ever emitted, across all tracers (process lifetime).
    #: A module global behind a property: assigning a *class* attribute
    #: per event would invalidate the interpreter's method caches for
    #: the class under every hook call.
    emitted_total = property(lambda cls: _emitted_total)


class Tracer(metaclass=_TracerTallies):
    """Collects trace events and divergence forensics; the metrics are
    read off the events (:meth:`metrics`).

    Class-level tallies (``created_total``, ``emitted_total``,
    ``materialised_total``) exist so the overhead regression test can
    assert the disabled path creates *nothing* — counts, not wall-clock.
    """

    #: Tracer instances ever constructed (process lifetime).
    created_total = 0
    #: :class:`TraceEvent` objects ever built (process lifetime): none
    #: while nobody reads :attr:`events`.
    materialised_total = 0

    def __init__(self, experiment: str = "") -> None:
        Tracer.created_total += 1
        self.experiment = experiment
        #: Every event in emission order, one flat tuple each:
        #: ``(at, kind, layer, field_names, *field_values)``.
        self._log: List[Tuple[Any, ...]] = []
        self._events: List[TraceEvent] = []
        #: The highest ``at`` any event carried; stamps the events of
        #: layers that do not carry a clock.
        self.vnow = 0
        #: Forensics bundles captured on divergences (see
        #: :mod:`repro.obs.forensics`).
        self.forensics: List[Any] = []

    # -- core emission ------------------------------------------------------

    def emit(self, kind: str, layer: str, at: Optional[int] = None,
             **fields: Any) -> None:
        """Record one event; ``at=None`` stamps the current virtual time.

        Call sites guard with ``if tracer is not None:`` and then call
        this (or one of the three hooks below) once per event."""
        global _emitted_total
        if at is None:
            at = self.vnow
        elif at > self.vnow:
            self.vnow = at
        self._log.append((at, kind, layer, tuple(fields), *fields.values()))
        _emitted_total += 1

    @property
    def event_count(self) -> int:
        """Events recorded so far (builds nothing)."""
        return len(self._log)

    @property
    def events(self) -> List[TraceEvent]:
        """Every event so far, in order, as :class:`TraceEvent` objects:
        built from the log on read, each entry once, so a run that never
        looks pays for none."""
        events = self._events
        fresh = self._log[len(events):]
        events.extend(TraceEvent(at, kind, layer, dict(zip(names, values)))
                      for at, kind, layer, names, *values in fresh)
        Tracer.materialised_total += len(fresh)
        return events

    # -- the three hooks that are more than an ``emit`` ---------------------

    def on_syscall(self, role: str, record: Any) -> None:
        """A gateway emitted one syscall record (any role)."""
        global _emitted_total
        self._log.append((self.vnow, "syscall", "mve", _SYSCALL_FIELDS,
                          role, record.name._value_, record.fd,
                          len(record.data)))
        _emitted_total += 1

    def on_kernel(self, phase: str, op: str, domain: int,
                  fd: int = -1) -> None:
        """The virtual kernel entered/exited (``phase`` is ``"enter"`` or
        ``"exit"``) one syscall implementation."""
        global _emitted_total
        self._log.append((self.vnow, _KERNEL_KINDS[phase], "kernel",
                          _KERNEL_FIELDS, op, domain, fd))
        _emitted_total += 1

    def on_forensics(self, bundle: Any) -> None:
        """A divergence produced a forensics bundle; keep and announce it."""
        self.forensics.append(bundle)
        self.emit("divergence.forensics", "mve", at=bundle.at,
                  reason=bundle.reason, bundle=len(self.forensics) - 1,
                  ring_records=len(bundle.ring_last_k))

    # -- reading the log ----------------------------------------------------

    def kind_tally(self) -> Dict[str, int]:
        """Event counts per kind (for summaries and tests)."""
        return dict(Counter(entry[1] for entry in self._log))

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """The metrics snapshot, sorted by name: :data:`METRICS` folded
        over the log."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, List[int]] = {}
        histograms: Dict[str, Histogram] = {}
        for entry in self._log:
            fields = dict(zip(entry[3], entry[4:]), kind=entry[1])
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
        yield json.dumps({"schema": TRACE_SCHEMA,
                          "experiment": self.experiment,
                          "events": len(self._log)})
        for at, kind, layer, names, *values in self._log:
            yield json.dumps(_payload(at, kind, layer, zip(names, values)))
        yield json.dumps({"at": self.vnow, "kind": "metrics.snapshot",
                          "layer": "obs", "metrics": self.metrics()})

    def to_jsonl_lines(self) -> List[str]:
        """The full trace as JSONL lines (header, events, metrics)."""
        return list(self._jsonl_lines())

    def write_jsonl(self, path: str) -> None:
        """Write the trace to ``path``, one JSON object per line, a line
        at a time."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in self._jsonl_lines())


# ---------------------------------------------------------------------------
# Schema validation (used by tests and the CI trace-smoke job)
# ---------------------------------------------------------------------------

#: A ``repro-trace/1`` header, event and closing snapshot line.
TRACE_HEADER_SHAPE = Obj({"schema": const(TRACE_SCHEMA), "events": NAT})
EVENT_SHAPE = Obj({"at": INT, "kind": one_of(kinds("events")),
                   "layer": TEXT})
SNAPSHOT_SHAPE = Obj({"at": INT, "kind": const("metrics.snapshot"),
                      "layer": TEXT, "metrics": MapOf(ANY)})


def validate_trace_lines(lines: List[str]) -> List[str]:
    """Problems with ``repro-trace/1`` lines (empty = valid): a
    :data:`TRACE_HEADER_SHAPE`, as many :data:`EVENT_SHAPE` as it says,
    then the metrics snapshot."""
    if len(lines) < 2:
        return ["trace has no metrics snapshot line" if lines
                else "trace is empty"]
    found = jsonl_problems(lines, TRACE_HEADER_SHAPE, "events", EVENT_SHAPE,
                           closing=SNAPSHOT_SHAPE)
    if any(problem.startswith(f"line {len(lines)}:") for problem in found):
        found.append("last line is not a metrics.snapshot")
    return found


def validate_trace_file(path: str) -> List[str]:
    """Validate a JSONL trace file; returns a list of problems."""
    return jsonl_file_problems(path, validate_trace_lines)
