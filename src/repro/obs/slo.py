"""Request-level SLO accounting over causal spans.

This is where the span layer pays off: given a
run log (:class:`~repro.obs.trace.Tracer`, installed in the spans slot)
full of request / DSU / MVE / fleet spans, this module answers the operator's questions —

* *Did we meet the latency budget?*  :class:`SloSpec` states the budget
  (p50/p99/p999 ceilings in virtual ns, an availability floor) and
  :func:`build_slo_report` checks it against exact nearest-rank
  percentiles (:class:`~repro.obs.metrics.Histogram`).
* *Which requests blew it, during which upgrade phase?*  Every request
  span carries the phase it was served in (normal / mve-active /
  quiesce-pause / promoted / rolled-back); requests that overlap a
  quiescence or fork window are re-tagged ``quiesce-pause`` even if they
  were admitted before the update began.
* *Why?*  :func:`attribute_request` walks an SLO-violating request's
  span tree — child waits contribute their full duration, background
  waits (a ring stall, a quiescence pause on another span stack)
  contribute their overlap with the request window — and blames the
  dominant cause: ``ring-stall``, ``quiesce-pause``, ``transform``,
  ``divergence``, ``promote-drain``, or ``self`` when the request's own
  service time dominates.

Reports use schema ``repro-slo/1`` and are bit-stable per seed: all
quantities are exact integers or round()-ed floats derived from them,
histograms merge losslessly across workers
(:meth:`~repro.obs.metrics.Histogram.merge`), and nothing
non-deterministic (wall clock, worker count) is allowed into the
payload.

Standard library, :mod:`repro.report`, :mod:`repro.obs.metrics` and
:mod:`repro.obs.trace` only: any layer can import it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import Histogram
from repro.obs.trace import PAUSE_KINDS, PHASES, Span, Tracer
from repro.report import (ANY, BOOL, INT, NAT, STR, UNIT, ListOf, MapOf, Obj,
                          Via, const, problems)

#: SLO report schema identifier (bump on shape changes).
SLO_SCHEMA = "repro-slo/1"

#: Span kinds that can be blamed for a request's latency, and the
#: attribution category each maps to.  ``dsu.update`` is deliberately
#: absent: it is an umbrella over quiesce/fork/xform and would
#: double-count them.
BLAME = {
    "mve.ring-stall": "ring-stall",
    "dsu.quiesce": "quiesce-pause",
    "dsu.fork": "quiesce-pause",
    "dsu.xform": "transform",
    "mve.divergence": "divergence",
    "mve.promote": "promote-drain",
    "mve.demotion": "demotion",
}

#: Attribution category when no blameable wait overlaps the request.
SELF_BLAME = "self"

#: Most attributions kept per report (worst-first), so reports stay
#: readable and bit-stable regardless of how many requests violate.
MAX_ATTRIBUTIONS = 10

#: Quantiles reported per phase: (key, q).
QUANTILES = (("p50_ns", 0.50), ("p99_ns", 0.99), ("p999_ns", 0.999))


class SloSpec:
    """A latency/availability budget in virtual time.

    ``p50_ns``/``p99_ns``/``p999_ns`` are ceilings on the corresponding
    nearest-rank percentile of request latency; ``availability`` is a
    floor on the answered-request ratio in ``[0, 1]``.  Any ceiling may
    be None (unconstrained).  ``p99_ns`` doubles as the *per-request*
    budget: a request slower than it is an SLO-violating request and
    gets a critical-path attribution.
    """

    __slots__ = ("name", "p50_ns", "p99_ns", "p999_ns", "availability")

    def __init__(self, name: str = "default", *,
                 p50_ns: Optional[int] = None,
                 p99_ns: Optional[int] = None,
                 p999_ns: Optional[int] = None,
                 availability: Optional[float] = None) -> None:
        self.name = name
        self.p50_ns = p50_ns
        self.p99_ns = p99_ns
        self.p999_ns = p999_ns
        self.availability = availability

    def problems(self) -> List[str]:
        """Schema errors in the spec itself (empty means well-formed)."""
        problems: List[str] = []
        if not isinstance(self.name, str) or not self.name:
            problems.append(f"spec name {self.name!r} must be a "
                            f"non-empty string")
        for key in ("p50_ns", "p99_ns", "p999_ns"):
            value = getattr(self, key)
            if value is not None and (not isinstance(value, int)
                                      or value <= 0):
                problems.append(f"{key} is {value!r}, expected a "
                                f"positive int or None")
        availability = self.availability
        if availability is not None:
            if not isinstance(availability, (int, float)) \
                    or not 0.0 <= availability <= 1.0:
                problems.append(f"availability is {availability!r}, "
                                f"expected a float in [0, 1] or None")
        ordered = [getattr(self, key) for key in
                   ("p50_ns", "p99_ns", "p999_ns")]
        known = [value for value in ordered if isinstance(value, int)]
        if known != sorted(known):
            problems.append("percentile budgets must be non-decreasing "
                            "(p50_ns <= p99_ns <= p999_ns)")
        return problems

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "p50_ns": self.p50_ns,
                "p99_ns": self.p99_ns, "p999_ns": self.p999_ns,
                "availability": self.availability}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SloSpec":
        return cls(payload.get("name", "default"),
                   p50_ns=payload.get("p50_ns"),
                   p99_ns=payload.get("p99_ns"),
                   p999_ns=payload.get("p999_ns"),
                   availability=payload.get("availability"))


# ---------------------------------------------------------------------------
# Sample extraction and critical-path attribution
# ---------------------------------------------------------------------------

def effective_phase(request: Span, collector: Tracer) -> str:
    """The upgrade phase the request was *actually* served in.

    The stamped phase is the run's phase at admission; a request
    that overlaps a quiescence or fork window was paused by the update
    regardless of when it was admitted, so it reports ``quiesce-pause``.
    """
    if request.end_ns is None:
        return request.phase
    for kind in PAUSE_KINDS:
        for span in collector.of_kind(kind):
            if span.overlap_ns(request.start_ns, request.end_ns) > 0:
                return "quiesce-pause"
    return request.phase


def _descends_from(span: Span, ancestor_id: int, spans: List[Span]) -> bool:
    """Whether ``span``'s parent links lead to ``ancestor_id``.  An id
    is a 1-based position in ``spans`` and a parent precedes its child,
    so only links to an earlier span are followed."""
    child_id, parent_id = span.span_id, span.parent_id
    while parent_id is not None:
        if parent_id == ancestor_id:
            return True
        if not 0 < parent_id < child_id:
            return False
        child_id, parent_id = parent_id, spans[parent_id - 1].parent_id
    return False


def attribute_request(request: Span,
                      collector: Tracer) -> Dict[str, Any]:
    """Critical-path attribution for one (closed) request span.

    Returns ``{"blame": category, "blame_ns": ns, "breakdown": {...}}``:
    child waits count in full, background waits count by overlap with
    the request window, and the dominant category wins (ties break
    alphabetically so reports are bit-stable).  ``self`` means the
    request's own service time dominates every blameable wait.
    """
    assert request.end_ns is not None
    breakdown: Dict[str, int] = {}
    for kind, category in BLAME.items():
        for span in collector.of_kind(kind):
            if span.end_ns is None:
                continue
            if _descends_from(span, request.span_id, collector.spans):
                ns = span.end_ns - span.start_ns
            else:
                ns = span.overlap_ns(request.start_ns, request.end_ns)
            if ns > 0:
                breakdown[category] = breakdown.get(category, 0) + ns
    if not breakdown:
        latency = request.end_ns - request.start_ns
        return {"blame": SELF_BLAME, "blame_ns": latency,
                "breakdown": {}}
    blame = min(breakdown, key=lambda cat: (-breakdown[cat], cat))
    return {"blame": blame, "blame_ns": breakdown[blame],
            "breakdown": dict(sorted(breakdown.items()))}


def collect_cell(collector: Tracer, cell: str,
                 spec: SloSpec) -> Dict[str, Any]:
    """Reduce one scenario cell's spans to a JSON/pickle-safe summary.

    This is the unit that crosses worker-process boundaries when a
    scenario runs sharded: exact per-phase value counts (losslessly
    mergeable), the answered tally, and the cell's SLO-violating
    requests with their attributions.  Value keys are stringified for
    JSON round-tripping; :func:`phase_histograms` undoes that.
    """
    phase_values: Dict[str, Dict[str, int]] = {}
    violations: List[Dict[str, Any]] = []
    requests = answered = 0
    for request in collector.request_spans():
        if request.end_ns is None:
            continue
        requests += 1
        if request.attrs.get("answered", True) \
                and not request.attrs.get("error"):
            answered += 1
        latency = request.end_ns - request.start_ns
        phase = effective_phase(request, collector)
        values = phase_values.setdefault(phase, {})
        key = str(latency)
        values[key] = values.get(key, 0) + 1
        if spec.p99_ns is not None and latency > spec.p99_ns:
            attribution = attribute_request(request, collector)
            violations.append({
                "cell": cell,
                "client": request.attrs.get("client", ""),
                "start_ns": request.start_ns,
                "latency_ns": latency,
                "budget_ns": spec.p99_ns,
                "phase": phase,
                "blame": attribution["blame"],
                "blame_ns": attribution["blame_ns"],
                "breakdown": attribution["breakdown"],
            })
    return {
        "cell": cell,
        "requests": requests,
        "answered": answered,
        "spans": len(collector.spans),
        "span_kinds": collector.span_tally(),
        "phase_values": phase_values,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def phase_histograms(cells: List[Dict[str, Any]]) -> Dict[str, Histogram]:
    """Merge per-cell phase value counts into one histogram per phase."""
    merged: Dict[str, Histogram] = {}
    for entry in cells:
        for phase, values in entry["phase_values"].items():
            histogram = merged.get(phase)
            if histogram is None:
                histogram = merged[phase] = Histogram(f"latency.{phase}")
            histogram.merge(Histogram.from_counts(f"latency.{phase}", values))
    return merged


def _phase_table(histograms: Dict[str, Histogram]) -> Dict[str, Any]:
    table: Dict[str, Any] = {}
    for phase in PHASES:
        histogram = histograms.get(phase)
        if histogram is None or histogram.count == 0:
            continue
        row: Dict[str, Any] = {"count": histogram.count}
        for key, q in QUANTILES:
            row[key] = histogram.quantile(q)
        row["max_ns"] = histogram.max_value
        table[phase] = row
    return table


def build_slo_report(scenario: str, seed: int, spec: SloSpec,
                     cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble the ``repro-slo/1`` report from per-cell summaries.

    ``cells`` must be in cell order (the scenario's declared order, not
    worker completion order) — histogram merging is order-insensitive
    but attribution ordering is not, and bit-stability demands both.
    """
    histograms = phase_histograms(cells)
    overall = Histogram("latency.overall")
    for histogram in histograms.values():
        overall.merge(histogram)
    requests = sum(entry["requests"] for entry in cells)
    answered = sum(entry["answered"] for entry in cells)
    availability = round(answered / requests, 4) if requests else 1.0

    checks: List[Dict[str, Any]] = []
    for key, q in QUANTILES:
        budget = getattr(spec, key)
        if budget is None:
            continue
        actual = overall.quantile(q)
        checks.append({"check": key, "budget": budget, "actual": actual,
                       "ok": actual is not None and actual <= budget})
    if spec.availability is not None:
        checks.append({"check": "availability",
                       "budget": spec.availability,
                       "actual": availability,
                       "ok": availability >= spec.availability})

    violations = [violation for entry in cells
                  for violation in entry["violations"]]
    # Worst first; then deterministic tiebreaks so the cap is bit-stable.
    violations.sort(key=lambda v: (-v["latency_ns"], v["cell"],
                                   v["start_ns"], v["client"]))
    span_kinds: Dict[str, int] = {}
    for entry in cells:
        for kind, count in entry["span_kinds"].items():
            span_kinds[kind] = span_kinds.get(kind, 0) + count

    return {
        "schema": SLO_SCHEMA,
        "scenario": scenario,
        "seed": seed,
        "spec": spec.as_dict(),
        "cells": [{"cell": entry["cell"],
                   "requests": entry["requests"],
                   "answered": entry["answered"],
                   "spans": entry["spans"],
                   "violations": len(entry["violations"])}
                  for entry in cells],
        "span_kinds": dict(sorted(span_kinds.items())),
        "requests": requests,
        "answered": answered,
        "availability": availability,
        "phases": _phase_table(histograms),
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
        "violating_requests": len(violations),
        "attributions": violations[:MAX_ATTRIBUTIONS],
    }


# ---------------------------------------------------------------------------
# Report validation
# ---------------------------------------------------------------------------

#: Sections reports share: a serialized :class:`SloSpec` is whatever its
#: ``problems`` say; a ``checks`` table is named verdicts.
SPEC_SHAPE = Via(Obj({}), lambda spec: SloSpec.from_dict(spec).problems())
CHECKS_SHAPE = ListOf(Obj({"check": STR, "ok": BOOL}))

#: What a ``repro-slo/1`` report looks like (:mod:`repro.report`).
SLO_SHAPE = Obj({
    "schema": const(SLO_SCHEMA), "scenario": ANY, "seed": ANY,
    "spec": SPEC_SHAPE,
    "cells": ListOf(Obj({"requests": NAT, "answered": NAT})),
    "requests": NAT, "answered": NAT, "availability": UNIT,
    "phases": MapOf(Obj({"count": INT, "p50_ns": INT, "p99_ns": INT,
                         "p999_ns": INT, "max_ns": INT}), PHASES),
    "checks": CHECKS_SHAPE, "violating_requests": NAT,
    "attributions": ListOf(Obj({"cell": STR, "phase": STR, "blame": STR,
                                "latency_ns": INT, "blame_ns": INT})),
})


def _cell_tally_problems(report: Dict[str, Any]) -> List[str]:
    """Cross-check of a shape-valid report: the totals are the cells'."""
    tallies = ((key, sum(cell[key] for cell in report["cells"]))
               for key in ("requests", "answered"))
    return [f"{key} is {report[key]} but the cells tally {tallied} "
            f"(tampered?)" for key, tallied in tallies
            if report[key] != tallied]


def validate_slo_report(report: Any) -> List[str]:
    """Problems with a ``repro-slo/1`` report (empty = valid)."""
    return problems(report, SLO_SHAPE, "", _cell_tally_problems)


def percentile_oracle(values: List[int], q: float) -> Optional[int]:
    """Sorted-list nearest-rank percentile — the oracle the Histogram's
    :meth:`~repro.obs.metrics.Histogram.quantile` is property-tested
    against, kept here so tests and docs share one definition."""
    if not values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    rank = q * len(ordered)
    target = int(rank) if rank == int(rank) else int(rank) + 1
    return ordered[max(0, target - 1)]


def summarize_latencies(values: List[int]) -> Dict[str, int]:
    """Exact ``latency_p50_ns``/``p99``/``p999`` gauges of a latency
    list (``repro perf``, ``repro.bench.distring``)."""
    summary: Dict[str, int] = {}
    if not values:
        return summary
    for key, q in QUANTILES:
        quantile = percentile_oracle(values, q)
        assert quantile is not None
        summary[f"latency_{key}"] = quantile
    return summary
