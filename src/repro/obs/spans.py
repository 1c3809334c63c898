"""Causal spans: who waited on what, across the whole upgrade.

The trace layer answers "what happened, in order"; spans answer "what
*caused* this request's latency".  A :class:`Span` is an interval of
virtual time with a parent link, so a request span (gateway accept →
response) can own the ring-stall waits that happened while it was being
served, and an SLO report can walk from a violated request down to the
dominant wait (see :mod:`repro.obs.slo`).

Span kinds, by layer:

* ``request`` (layer ``gateway``) — one closed-loop client request,
  opened at send time and closed when the reply is read;
* ``dsu.update`` / ``dsu.quiesce`` / ``dsu.fork`` / ``dsu.xform``
  (layer ``dsu``) — the update lifecycle; ``dsu.update`` is the
  umbrella, the others its children;
* ``mve.ring-stall`` / ``mve.divergence`` / ``mve.demotion`` /
  ``mve.promote`` / ``mve.crash-promote`` (layer ``mve``) — ring
  back-pressure waits and lifecycle transitions;
* ``net.ring`` (layer ``net``) — one distributed-ring frame's flight;
* ``fleet.round`` / ``fleet.slot`` (layer ``fleet``) — canary-staged
  upgrade rounds; probe requests issued inside a round become its
  children via the open-span stack.

Parenting uses **dynamic extent**: :meth:`SpanCollector.open` pushes the
span on a stack, :meth:`SpanCollector.close` pops it, and any span
created in between (opened or added closed) gets the stack top as its
parent.  Known-interval waits (a ring stall is ``[t, freed_at]`` the
moment it resolves) use :meth:`SpanCollector.add` and are born closed.

A collector is an observer of its own, installed with
``repro.sites.observing(spans=SpanCollector())`` — no tracer needed —
and every instrumented call site guards with ``spans is not None``.
The class-level tallies (``created_total`` / ``opened_total``) let the
overhead test assert the disabled path allocates *zero* span objects.

Spans export as JSONL (schema ``repro-span/1``): a header line then one
line per span.  ``validate_span_lines`` / ``validate_span_file`` check
the shape; span *hygiene* (unclosed spans, orphan parents, end before
start) is the MVE9xx lint's job (:mod:`repro.analysis.trace_lint`).

Standard library, :mod:`repro.report` and :mod:`repro.sites` only, so
any layer of the stack can import it without cycles.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

from repro.report import (INT, NAT, TEXT, Obj, Opt, const,
                          jsonl_file_problems, jsonl_problems, one_of)
from repro.sites import kinds

#: JSONL span schema identifier (bump on shape changes).
SPAN_SCHEMA = "repro-span/1"

#: Upgrade phases a request can be served in, in lifecycle order.
PHASES = ("normal", "mve-active", "quiesce-pause", "promoted",
          "rolled-back")

#: Span kinds during which the update pauses request service.
PAUSE_KINDS = ("dsu.quiesce", "dsu.fork")


class Span:
    """One interval of virtual time with a causal parent link."""

    __slots__ = ("span_id", "parent_id", "kind", "layer", "start_ns",
                 "end_ns", "phase", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], kind: str,
                 layer: str, start_ns: int, end_ns: Optional[int] = None,
                 phase: str = "normal",
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.layer = layer
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.phase = phase
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration_ns(self) -> Optional[int]:
        """Span length, or None while the span is still open."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def overlap_ns(self, start_ns: int, end_ns: int) -> int:
        """How much of ``[start_ns, end_ns]`` this (closed) span covers."""
        if self.end_ns is None:
            return 0
        return max(0, min(self.end_ns, end_ns) - max(self.start_ns,
                                                     start_ns))

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "span": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "layer": self.layer,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "phase": self.phase,
        }
        for key, value in self.attrs.items():
            payload[key] = value
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.span_id} {self.kind} "
                f"[{self.start_ns}, {self.end_ns}]>")


class SpanCollector:
    """Collects spans with dynamic-extent causal parenting.

    Class-level tallies exist so the zero-allocation regression test can
    assert the disabled path creates nothing — counts, not wall-clock,
    exactly like :class:`~repro.obs.trace.Tracer`'s tallies.
    """

    #: Collectors ever constructed (process lifetime).
    created_total = 0
    #: Spans ever created, across all collectors (process lifetime).
    opened_total = 0

    def __init__(self) -> None:
        SpanCollector.created_total += 1
        #: Every span in creation order; a span's id is its 1-based
        #: position here, which is how parent links are followed.
        self.spans: List[Span] = []
        #: The same spans by kind (kinds in first-appearance order).
        self._by_kind: Dict[str, List[Span]] = defaultdict(list)
        self._stack: List[Span] = []
        self._next_id = 1
        #: Current upgrade phase, stamped onto spans at creation.  The
        #: DSU orchestrator advances it through :data:`PHASES`.
        self.phase = PHASES[0]

    # -- creation -----------------------------------------------------------

    def _new_span(self, kind: str, layer: str, start_ns: int,
                  end_ns: Optional[int], parent: Optional[int],
                  attrs: Dict[str, Any]) -> Span:
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        span = Span(self._next_id, parent, kind, layer, start_ns, end_ns,
                    phase=self.phase, attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        self._by_kind[kind].append(span)
        SpanCollector.opened_total += 1
        return span

    def open(self, kind: str, layer: str, at: int,
             **attrs: Any) -> Span:
        """Start a span; spans created before :meth:`close` become its
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

    def set_phase(self, phase: str) -> None:
        """Advance the upgrade phase stamped onto subsequent spans."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r} "
                             f"(have: {', '.join(PHASES)})")
        self.phase = phase

    # -- introspection ------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def of_kind(self, kind: str) -> Sequence[Span]:
        """The spans of one kind, in creation order (a view of the
        collector's index, not a copy)."""
        return self._by_kind.get(kind, ())

    def request_spans(self) -> List[Span]:
        """All ``request`` spans, in creation order."""
        return list(self.of_kind("request"))

    def children_of(self, span_id: int) -> List[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def kind_tally(self) -> Dict[str, int]:
        return {kind: len(spans) for kind, spans in self._by_kind.items()}

    # -- export -------------------------------------------------------------

    def to_jsonl_lines(self, experiment: str = "") -> List[str]:
        """The spans as JSONL (header line, then one line per span)."""
        lines = [json.dumps({"schema": SPAN_SCHEMA,
                             "experiment": experiment,
                             "spans": len(self.spans)})]
        lines.extend(json.dumps(span.as_dict()) for span in self.spans)
        return lines

    def write_jsonl(self, path: str, experiment: str = "") -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_jsonl_lines(experiment):
                handle.write(line + "\n")


# ---------------------------------------------------------------------------
# Schema validation (shape only; hygiene is the MVE9xx lint's job)
# ---------------------------------------------------------------------------

#: A ``repro-span/1`` header line and span line (:mod:`repro.report`).
SPAN_HEADER_SHAPE = Obj({"schema": const(SPAN_SCHEMA), "spans": NAT})
SPAN_SHAPE = Obj({"span": INT, "start_ns": INT, "end_ns": Opt(INT),
                  "parent": Opt(INT), "kind": one_of(kinds("spans")),
                  "layer": TEXT, "phase": one_of(PHASES)})


def validate_span_lines(lines: List[str]) -> List[str]:
    """Problems with ``repro-span/1`` lines (empty = valid): a
    :data:`SPAN_HEADER_SHAPE`, then as many :data:`SPAN_SHAPE` as it says."""
    if not lines:
        return ["span file is empty"]
    return jsonl_problems(lines, SPAN_HEADER_SHAPE, "spans", SPAN_SHAPE)


def validate_span_file(path: str) -> List[str]:
    """Validate a JSONL span file; returns a list of problems."""
    return jsonl_file_problems(path, validate_span_lines)
