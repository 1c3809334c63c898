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
(the MVE runtime, the orchestrator) call :meth:`Tracer.advance`; layers
that do not (the kernel, the gateway) stamp events with the most
recently advanced time, which is exact at iteration granularity.

With an observer present, an event is one flat tuple appended to the
tracer's log; :class:`TraceEvent` objects, kind tallies and JSONL lines
are built from the log only when someone reads them.

Traces export as JSONL (schema ``repro-trace/1``): a header line, one
line per event, and a final ``metrics.snapshot`` line.  See
``docs/observability.md`` for the full schema and event taxonomy.

This module imports only the standard library, :mod:`repro.report`,
:mod:`repro.sites` and its :mod:`repro.obs` siblings, so any layer of
the stack can depend on it without cycles.
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.metrics import Counter, MetricsRegistry
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


#: Every hook goes through :meth:`Tracer.emit` except the kernel's and
#: the gateway's: they fire ~18 times per request (all others together
#: once), so they append their log entry themselves, with these constant
#: kinds and field names, and bump counters they looked up once.
_KERNEL_KINDS = {"enter": "kernel.enter", "exit": "kernel.exit"}
_KERNEL_FIELDS = ("op", "domain", "fd")
_SYSCALL_FIELDS = ("role", "name", "fd", "nbytes")

_emitted_total = 0


class _TracerTallies(type):
    #: Trace events ever emitted, across all tracers (process lifetime).
    #: A module global behind a property: assigning a *class* attribute
    #: per event would invalidate the interpreter's method caches for
    #: the class under every hook call.
    emitted_total = property(lambda cls: _emitted_total)


class Tracer(metaclass=_TracerTallies):
    """Collects trace events, metrics, and divergence forensics.

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
        self.metrics = MetricsRegistry()
        #: The hot hooks' counters, looked up on first use so the
        #: registry still lists only touched names.
        self._kernel_syscalls: Optional[Counter] = None
        self._syscall_counters: Dict[str, Tuple[Counter, Counter]] = {}
        #: Most recently advanced virtual time; used to stamp events
        #: from layers that do not carry a clock.
        self.vnow = 0
        #: Forensics bundles captured on divergences (see
        #: :mod:`repro.obs.forensics`).
        self.forensics: List[Any] = []

    # -- core emission ------------------------------------------------------

    def advance(self, at: int) -> None:
        """Move the tracer's notion of virtual time forward (never back)."""
        if at > self.vnow:
            self.vnow = at

    def emit(self, kind: str, layer: str, at: Optional[int] = None,
             **fields: Any) -> None:
        """Record one event; ``at=None`` stamps the current virtual time."""
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

    # -- layer hooks --------------------------------------------------------
    #
    # Call sites guard with ``if tracer is not None:`` and then call one
    # of these, keeping instrumented modules to a single line each.

    def on_syscall(self, role: str, record: Any) -> None:
        """A gateway emitted one syscall record (any role)."""
        global _emitted_total
        self._log.append((self.vnow, "syscall", "mve", _SYSCALL_FIELDS,
                          role, record.name._value_, record.fd,
                          len(record.data)))
        _emitted_total += 1
        counters = self._syscall_counters.get(role)
        if counters is None:
            counters = self._syscall_counters[role] = (
                self.metrics.counter("syscalls.total"),
                self.metrics.counter(f"syscalls.{role}"))
        counters[0].value += 1
        counters[1].value += 1

    def on_kernel(self, phase: str, op: str, domain: int,
                  fd: int = -1) -> None:
        """The virtual kernel entered/exited (``phase`` is ``"enter"`` or
        ``"exit"``) one syscall implementation."""
        global _emitted_total
        self._log.append((self.vnow, _KERNEL_KINDS[phase], "kernel",
                          _KERNEL_FIELDS, op, domain, fd))
        _emitted_total += 1
        if phase == "enter":
            counter = self._kernel_syscalls
            if counter is None:
                counter = self._kernel_syscalls = \
                    self.metrics.counter("kernel.syscalls")
            counter.value += 1

    def on_sim_event(self, at: int, pending: int) -> None:
        """The discrete-event engine dispatched one scheduled event."""
        self.emit("sim.event", "sim", at=at, pending=pending)
        self.metrics.counter("sim.events").inc()

    def on_ring_publish(self, at: int, count: int, occupancy: int,
                        high_watermark: int) -> None:
        """The leader pushed a batch of records onto the ring."""
        self.emit("ring.publish", "mve", at=at, count=count,
                  occupancy=occupancy)
        self.metrics.counter("ring.published").inc(count)
        self.metrics.gauge("ring.occupancy").set(occupancy)
        self.metrics.gauge("ring.high_watermark").set(high_watermark)

    def on_ring_replay(self, at: int, count: int, occupancy: int) -> None:
        """The follower consumed one iteration's entries from the ring."""
        self.emit("ring.replay", "mve", at=at, count=count,
                  occupancy=occupancy)
        self.metrics.counter("ring.replayed").inc(count)
        self.metrics.gauge("ring.occupancy").set(occupancy)

    def on_ring_stall(self, at: int, capacity: int) -> None:
        """A full ring blocked the leader (Figure 7's back-pressure)."""
        self.emit("ring.stall", "mve", at=at, capacity=capacity)
        self.metrics.counter("ring.stalls").inc()

    def on_ring_frame(self, at: int, sequence: int, count: int,
                      n_bytes: int, inflight: int,
                      deliver_at: int) -> None:
        """A distributed ring shipped one repro-ring/1 frame."""
        self.emit("net.ring.frame", "net", at=at, sequence=sequence,
                  count=count, bytes=n_bytes, inflight=inflight,
                  deliver_at=deliver_at)
        self.metrics.counter("ring.frames").inc()
        self.metrics.gauge("ring.inflight").set(inflight)

    def on_ring_resync(self, at: int, resyncs: int) -> None:
        """A distributed ring resynchronised its stream at a fork."""
        self.emit("net.ring.resync", "net", at=at, resyncs=resyncs)
        self.metrics.counter("ring.resync").inc()

    def on_rules_applied(self, n_in: int, n_out: int,
                         fired: List[str]) -> None:
        """One iteration's records crossed the rewrite-rule engine."""
        self.metrics.counter("rules.records_in").inc(n_in)
        self.metrics.counter("rules.dispatch_hits").inc(len(fired))
        for name in fired:
            self.emit("rule.fired", "mve", rule=name)

    def on_divergence_check(self, at: int, ok: bool, records: int,
                            detail: str = "") -> None:
        """One replayed iteration's verdict: matched or diverged."""
        self.emit("divergence.check", "mve", at=at, ok=ok, records=records,
                  detail=detail)
        self.metrics.counter("divergence.checks").inc()
        if not ok:
            self.metrics.counter("divergence.detected").inc()

    def on_forensics(self, bundle: Any) -> None:
        """A divergence produced a forensics bundle; keep and announce it."""
        self.forensics.append(bundle)
        self.emit("divergence.forensics", "mve", at=bundle.at,
                  reason=bundle.reason, bundle=len(self.forensics) - 1,
                  ring_records=len(bundle.ring_last_k))

    def on_dsu(self, kind: str, at: int, **fields: Any) -> None:
        """A DSU lifecycle step (request/quiesce/xform/applied/...)."""
        self.emit(f"dsu.{kind}", "dsu", at=at, **fields)
        self.metrics.counter(f"dsu.{kind}").inc()
        if kind == "quiesce" and "ns" in fields:
            self.metrics.histogram("dsu.quiescence_wait_ns") \
                .observe(fields["ns"])
        if kind == "xform" and "ns" in fields:
            self.metrics.histogram("dsu.xform_ns").observe(fields["ns"])

    def on_stream_record(self, at: int, count: int) -> None:
        """The stream recorder persisted one leader iteration."""
        self.emit("stream.record", "replay", at=at, count=count)
        self.metrics.counter("stream.recorded").inc(count)

    def on_control(self, kind: str, at: int, version: str) -> None:
        """A promote/demote control event entered the ring stream."""
        self.emit(f"control.{kind}", "mve", at=at, version=version)
        self.metrics.counter(f"control.{kind}").inc()

    def on_fleet(self, kind: str, at: int, **fields: Any) -> None:
        """A fleet-orchestration step (canary/wave/promote/rollback/
        demotion/failover/partition/replica_crash)."""
        self.emit(f"fleet.{kind}", "fleet", at=at, **fields)
        self.metrics.counter(f"fleet.{kind}").inc()

    def on_chaos(self, at: int, site: str, kind: str, *,
                 call_index: int = 0, stage: str = "") -> None:
        """A chaos injector fired one fault at an instrumented site."""
        self.emit("chaos.inject", "chaos", at=at, site=site, fault=kind,
                  call_index=call_index, stage=stage)
        self.metrics.counter("chaos.injected").inc()
        self.metrics.counter(f"chaos.site.{site}").inc()

    # -- reporting ----------------------------------------------------------

    def kind_tally(self) -> Dict[str, int]:
        """Event counts per kind (for summaries and tests)."""
        return dict(_TallyCounter(entry[1] for entry in self._log))

    def _jsonl_lines(self) -> Iterator[str]:
        yield json.dumps({"schema": TRACE_SCHEMA,
                          "experiment": self.experiment,
                          "events": len(self._log)})
        for at, kind, layer, names, *values in self._log:
            yield json.dumps(_payload(at, kind, layer, zip(names, values)))
        yield json.dumps({"at": self.vnow, "kind": "metrics.snapshot",
                          "layer": "obs",
                          "metrics": self.metrics.snapshot()})

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
