"""The SLO engine: exact histograms vs a sorted-list oracle, the
``repro-slo/1`` report, critical-path attribution, and the CLI.

The histogram properties are the load-bearing ones: ``quantile`` must
be the true nearest-rank percentile and ``merge`` must be lossless,
because the ``--workers N`` byte-identity guarantee is nothing but
those two properties composed.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram
from repro.obs.slo import (
    BLAME,
    SLO_SCHEMA,
    SloSpec,
    attribute_request,
    collect_cell,
    effective_phase,
    percentile_oracle,
    summarize_latencies,
    validate_slo_report,
)
from repro.cli import main
from repro.obs.slo_scenarios import SLO_SPECS, run_slo_scenario
from repro.obs.trace import PAUSE_KINDS, PHASES, Tracer
from repro.sites import OBS, observing

values_lists = st.lists(st.integers(min_value=0, max_value=10**12),
                        min_size=1, max_size=200)
quantiles = st.one_of(st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False),
                      st.sampled_from([0.0, 0.5, 0.99, 0.999, 1.0]))


# ---------------------------------------------------------------------------
# Histogram vs oracle (satellite: exact quantile/merge)
# ---------------------------------------------------------------------------


class TestHistogramProperties:
    @given(values=values_lists, q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_quantile_matches_the_sorted_list_oracle(self, values, q):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        assert hist.quantile(q) == percentile_oracle(values, q)

    @given(a=values_lists, b=values_lists, q=quantiles)
    @settings(max_examples=200, deadline=None)
    def test_merge_is_lossless(self, a, b, q):
        left, right, combined = (Histogram(n) for n in "lrc")
        for value in a:
            left.observe(value)
        for value in b:
            right.observe(value)
        for value in a + b:
            combined.observe(value)
        merged = left.merge(right)
        assert merged is left
        assert merged.quantile(q) == combined.quantile(q)
        assert merged.count == combined.count
        assert merged.total == combined.total
        assert merged.min_value == combined.min_value
        assert merged.max_value == combined.max_value

    def test_quantile_edge_cases(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        assert percentile_oracle([], 0.5) is None
        hist.observe(7)
        assert hist.quantile(0.0) == 7
        assert hist.quantile(1.0) == 7
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            percentile_oracle([1], -0.1)

    def test_summarize_latencies_uses_the_same_ranks(self):
        values = list(range(1, 1001))
        summary = summarize_latencies(values)
        assert summary == {"latency_p50_ns": 500,
                           "latency_p99_ns": 990,
                           "latency_p999_ns": 999}


# ---------------------------------------------------------------------------
# SloSpec
# ---------------------------------------------------------------------------


class TestSloSpec:
    def test_shipped_specs_are_well_formed(self):
        for name, spec in SLO_SPECS.items():
            assert spec.problems() == [], name

    def test_malformed_specs_are_caught(self):
        assert SloSpec("").problems()
        assert SloSpec("x", p99_ns=0).problems()
        assert SloSpec("x", p99_ns=-5).problems()
        assert SloSpec("x", availability=1.5).problems()
        assert any("non-decreasing" in p for p in
                   SloSpec("x", p50_ns=100, p99_ns=50).problems())

    def test_round_trips_through_dict(self):
        spec = SLO_SPECS["fig7"]
        again = SloSpec.from_dict(spec.as_dict())
        assert again.as_dict() == spec.as_dict()


# ---------------------------------------------------------------------------
# Attribution on a hand-built span tree
# ---------------------------------------------------------------------------


def _request_with_waits():
    c = Tracer()
    request = c.open("request", "gateway", 0)
    c.add("mve.ring-stall", "mve", 10, 30)
    c.close(request, 100)
    # A background quiesce overlapping [40, 90] of the request, not a
    # descendant: contributes its *overlap*, not its full duration.
    c.add("dsu.quiesce", "dsu", 40, 200, parent=None)
    return c, request


class TestAttribution:
    def test_dominant_wait_wins(self):
        c, request = _request_with_waits()
        attribution = attribute_request(request, c)
        assert attribution["blame"] == "quiesce-pause"
        assert attribution["blame_ns"] == 60  # overlap of [40, 100]
        assert attribution["breakdown"]["ring-stall"] == 20

    def test_unblamed_latency_is_self(self):
        c = Tracer()
        request = c.open("request", "gateway", 0)
        c.close(request, 50)
        attribution = attribute_request(request, c)
        assert attribution["blame"] == "self"
        assert attribution["blame_ns"] == 50

    def test_blame_table_never_names_the_umbrella(self):
        # dsu.update is the umbrella over quiesce+fork+xform; blaming it
        # too would double-count every pause.
        assert "dsu.update" not in BLAME

    def test_effective_phase_retags_requests_over_a_pause(self):
        c = Tracer()
        hit = c.open("request", "gateway", 0)
        c.close(hit, 100)
        c.add("dsu.quiesce", "dsu", 50, 80)
        miss = c.open("request", "gateway", 200)
        c.close(miss, 210)
        assert effective_phase(hit, c) == "quiesce-pause"
        assert effective_phase(miss, c) == "normal"

    def test_effective_phase_sees_a_pause_closed_after_first_lookup(self):
        # The by-kind index holds the spans themselves: a pause that
        # was still open at a lookup, and spans added since, must count.
        c = Tracer()
        early = c.open("request", "gateway", 0)
        c.close(early, 60)
        pause = c.open("dsu.quiesce", "dsu", 50)
        assert effective_phase(early, c) == "normal"   # still open
        assert c.of_kind("dsu.quiesce") == [pause]
        c.close(pause, 80)
        assert effective_phase(early, c) == "quiesce-pause"
        late = c.open("request", "gateway", 300)
        c.close(late, 320)
        assert effective_phase(late, c) == "normal"
        fork = c.add("dsu.fork", "dsu", 310, 330)
        assert effective_phase(late, c) == "quiesce-pause"
        assert c.of_kind("dsu.fork") == [fork]
        assert c.of_kind("dsu.fork") is c.of_kind("dsu.fork")   # no copy
        assert c.of_kind("mve.promote") == ()


# ---------------------------------------------------------------------------
# Indexed attribution against the full-scan reference
# ---------------------------------------------------------------------------
#
# What ``effective_phase``/``attribute_request``/``collect_cell`` did
# before the collector had a by-kind index: every question re-reads
# ``collector.spans`` from the start, and ancestry is one forward pass
# over every span.  Kept here as the reference.


def _scan_effective_phase(request, collector):
    if request.end_ns is None:
        return request.phase
    for span in collector.spans:
        if span.kind in PAUSE_KINDS \
                and span.overlap_ns(request.start_ns, request.end_ns) > 0:
            return "quiesce-pause"
    return request.phase


def _scan_attribute_request(request, collector):
    descendants = {request.span_id}
    for span in collector.spans:
        if span.parent_id in descendants:
            descendants.add(span.span_id)
    breakdown = {}
    for span in collector.spans:
        category = BLAME.get(span.kind)
        if category is None or span.end_ns is None:
            continue
        if span.span_id in descendants:
            ns = span.end_ns - span.start_ns
        else:
            ns = span.overlap_ns(request.start_ns, request.end_ns)
        if ns > 0:
            breakdown[category] = breakdown.get(category, 0) + ns
    if not breakdown:
        return {"blame": "self",
                "blame_ns": request.end_ns - request.start_ns,
                "breakdown": {}}
    blame = min(breakdown, key=lambda cat: (-breakdown[cat], cat))
    return {"blame": blame, "blame_ns": breakdown[blame],
            "breakdown": dict(sorted(breakdown.items()))}


def _scan_collect_cell(collector, cell, spec):
    phase_values, violations = {}, []
    requests = answered = 0
    for request in collector.spans:
        if request.kind != "request" or request.end_ns is None:
            continue
        requests += 1
        if request.attrs.get("answered", True) \
                and not request.attrs.get("error"):
            answered += 1
        latency = request.end_ns - request.start_ns
        phase = _scan_effective_phase(request, collector)
        values = phase_values.setdefault(phase, {})
        values[str(latency)] = values.get(str(latency), 0) + 1
        if spec.p99_ns is not None and latency > spec.p99_ns:
            attribution = _scan_attribute_request(request, collector)
            violations.append({
                "cell": cell, "client": request.attrs.get("client", ""),
                "start_ns": request.start_ns, "latency_ns": latency,
                "budget_ns": spec.p99_ns, "phase": phase, **attribution})
    span_kinds = {}
    for span in collector.spans:
        span_kinds[span.kind] = span_kinds.get(span.kind, 0) + 1
    return {"cell": cell, "requests": requests, "answered": answered,
            "spans": len(collector.spans), "span_kinds": span_kinds,
            "phase_values": phase_values, "violations": violations}


_span_kinds = st.sampled_from(["request", "request", "dsu.update",
                               "fleet.round", *BLAME])
_times = st.integers(min_value=0, max_value=400)
#: Collector calls: nested opens, closes of the innermost span (some
#: stay open), born-closed spans under the dynamic parent or under any
#: id at all — earlier, later, its own, or no span's — and phase moves.
_span_ops = st.one_of(
    st.tuples(st.just("open"), _span_kinds, _times),
    st.tuples(st.just("close"), _times,
              st.fixed_dictionaries({}, optional={
                  "answered": st.booleans(), "error": st.booleans()})),
    st.tuples(st.just("add"), _span_kinds, _times, _times,
              st.none() | st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("phase"), st.sampled_from(PHASES)),
)


def _build_forest(ops):
    collector = Tracer()
    with observing():
        _grow(collector, ops)
    return collector


def _grow(collector, ops):
    for op, *args in ops:
        if op == "open":
            kind, at = args
            collector.open(kind, "layer", at, client=f"c{at % 3}")
        elif op == "close" and collector.current is not None:
            at, attrs = args
            collector.close(collector.current,
                            collector.current.start_ns + at, **attrs)
        elif op == "add":
            kind, start, length, parent = args
            collector.add(kind, "layer", start, start + length,
                          parent=parent)
        elif op == "phase":
            OBS.phase = args[0]


class TestIndexedAttributionMatchesTheFullScan:
    @given(ops=st.lists(_span_ops, max_size=30),
           budget=st.none() | st.integers(min_value=1, max_value=200))
    @settings(max_examples=300, deadline=None)
    def test_on_generated_span_forests(self, ops, budget):
        collector = _build_forest(ops)
        for span in collector.spans:
            assert effective_phase(span, collector) == \
                _scan_effective_phase(span, collector)
            if span.end_ns is not None:
                # Any closed span can be asked about, blameable or not.
                assert attribute_request(span, collector) == \
                    _scan_attribute_request(span, collector)
        spec = SloSpec("generated", p99_ns=budget)
        cell = collect_cell(collector, "cell", spec)
        assert cell == _scan_collect_cell(collector, "cell", spec)
        # Key order is part of the report's bytes.
        assert json.dumps(cell) == \
            json.dumps(_scan_collect_cell(collector, "cell", spec))
        assert [span.span_id for span in collector.request_spans()] == \
            [span.span_id for span in collector.spans
             if span.kind == "request"]


# ---------------------------------------------------------------------------
# The report: determinism, sharding byte-identity, validation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_fig7():
    return run_slo_scenario("fig7", seed=1, quick=True)


class TestReport:
    def test_report_validates_and_has_the_key_shape(self, quick_fig7):
        report = quick_fig7
        assert validate_slo_report(report) == []
        assert report["schema"] == SLO_SCHEMA
        assert report["requests"] > 0
        assert "quiesce-pause" in report["phases"]
        # The acceptance attribution: at least one violating request
        # blamed on the masked DSU pause.
        assert any(a["blame"] == "quiesce-pause"
                   for a in report["attributions"])
        # Worker count must never leak into the artifact.
        assert "workers" not in json.dumps(report)

    def test_report_is_deterministic(self, quick_fig7):
        again = run_slo_scenario("fig7", seed=1, quick=True)
        assert json.dumps(again, sort_keys=True) \
            == json.dumps(quick_fig7, sort_keys=True)

    def test_sharded_run_is_byte_identical(self, quick_fig7):
        sharded = run_slo_scenario("fig7", seed=1, quick=True, workers=2)
        assert json.dumps(sharded, sort_keys=True) \
            == json.dumps(quick_fig7, sort_keys=True)

    def test_tampering_is_caught(self, quick_fig7):
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["schema"] = "repro-slo/0"
        assert any("schema" in p for p in validate_slo_report(tampered))
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["requests"] += 1
        assert validate_slo_report(tampered)
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["phases"]["quiesce-pause"]["count"] = "many"
        assert validate_slo_report(tampered)
        tampered = json.loads(json.dumps(quick_fig7))
        tampered["spec"]["p99_ns"] = -1
        assert validate_slo_report(tampered)
        assert validate_slo_report({}) != []
        # A misshapen cell is a problem too, not an exception.
        tampered = {**quick_fig7, "cells": [{"requests": "x"}]}
        assert any("'cells'[0] 'requests'" in p
                   for p in validate_slo_report(tampered))

    def test_collect_cell_is_pickle_shaped(self):
        # Cells cross process boundaries under --workers: plain dicts
        # of str/int only, reconstructed into Histograms on merge.
        c, _ = _request_with_waits()
        cell = collect_cell(c, "unit", SloSpec("unit", p99_ns=10))
        assert cell["cell"] == "unit"
        assert cell["requests"] == 1
        assert cell["violations"][0]["blame"] == "quiesce-pause"
        json.dumps(cell)  # JSON-safe implies pickle-safe here


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_quick_run_writes_and_checks(self, tmp_path, capsys):
        out = tmp_path / "slo.json"
        spans = tmp_path / "spans.jsonl"
        code = main(["slo", "fig7", "--quick", "--check",
                     "--out", str(out), "--spans", str(spans)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "schema ok" in stdout
        assert "quiesce-pause" in stdout
        report = json.loads(out.read_text())
        assert validate_slo_report(report) == []
        from repro.obs.trace import validate_file
        assert validate_file(str(spans)) == []

    def test_unknown_scenario_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["slo", "nosuch"])
        assert "invalid choice" in capsys.readouterr().err
