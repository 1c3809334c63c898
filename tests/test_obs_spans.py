"""The causal span layer: zero-cost when disabled, dynamic-extent
parenting when enabled, and the ``repro-span/1`` validators.

The zero-allocation tests mirror ``test_obs_overhead.py``: "free" is
asserted in counts, not wall-clock — :class:`SpanCollector` keeps
process-lifetime class tallies exactly so this test can pin the
disabled path to *zero span objects*.
"""

import pytest

from repro.analysis.trace_lint import lint_span_file, lint_spans
from repro.cli import main
from repro.obs import Tracer
from repro.obs.spans import (
    PHASES,
    SPAN_SCHEMA,
    SpanCollector,
    validate_span_file,
    validate_span_lines,
)
from repro.perf.scenarios import run_rule_heavy_mve_redis
from repro.sites import OBS, observing

FIXTURE = "tests/fixtures/bad_spans.jsonl"


# ---------------------------------------------------------------------------
# Zero-allocation contract
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_no_tracer_allocates_no_spans(self):
        assert OBS.tracer is None and OBS.spans is None
        collectors_before = SpanCollector.created_total
        spans_before = SpanCollector.opened_total

        gauges = run_rule_heavy_mve_redis(32)

        # The workload really ran, through every instrumented hook...
        assert gauges["vrequests"] == 32
        assert gauges["syscalls"] > 0
        assert gauges["ring_high_watermark"] > 0
        # ...and not one span object was born.
        assert SpanCollector.created_total == collectors_before
        assert SpanCollector.opened_total == spans_before

    def test_tracer_without_spans_allocates_no_spans(self):
        # A tracer alone must not wake the span layer: spans are an
        # independent observer, installed on their own.
        collectors_before = SpanCollector.created_total
        spans_before = SpanCollector.opened_total
        tracer = Tracer(experiment="span-overhead")
        with observing(tracer=tracer):
            assert OBS.spans is None
            run_rule_heavy_mve_redis(8)
        assert not hasattr(tracer, "spans")
        assert tracer.events  # tracing itself did record
        assert SpanCollector.created_total == collectors_before
        assert SpanCollector.opened_total == spans_before

    def test_enabled_path_actually_records(self):
        # Control experiment: the same workload with spans installed
        # does record — proving the zeros above measure the guard, not
        # dead hooks.
        spans = SpanCollector()
        with observing(tracer=Tracer(experiment="span-control"),
                       spans=spans):
            run_rule_heavy_mve_redis(8)
        tally = spans.kind_tally()
        assert tally.get("request", 0) == 8
        assert all(span.end_ns is not None
                   for span in spans.request_spans())

    def test_report_cells_build_no_tracer(self):
        # The open-loop and SLO reports read spans only, so their cells
        # install a collector and nothing else.
        from repro.obs.slo_scenarios import run_slo_cell
        from repro.workloads.openloop_scenarios import run_openloop_cell
        created = Tracer.created_total
        emitted = Tracer.emitted_total
        openloop = run_openloop_cell("kvstore", 4, seed=1, quick=True)
        slo = run_slo_cell("fig7", 0, seed=1, quick=True)
        assert (Tracer.created_total, Tracer.emitted_total) == \
            (created, emitted)
        assert openloop["slo_cell"]["spans"] > 0 and slo["spans"] > 0


# ---------------------------------------------------------------------------
# Collector semantics
# ---------------------------------------------------------------------------


class TestCollector:
    def test_dynamic_extent_parenting(self):
        c = SpanCollector()
        outer = c.open("fleet.round", "fleet", 0)
        inner = c.open("request", "gateway", 10)
        stall = c.add("mve.ring-stall", "mve", 12, 15)
        c.close(inner, 20)
        c.close(outer, 30)
        orphan = c.add("mve.demotion", "mve", 40, 40)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert stall.parent_id == inner.span_id
        assert orphan.parent_id is None
        assert [s.span_id for s in c.children_of(inner.span_id)] \
            == [stall.span_id]

    def test_explicit_parent_overrides_the_stack(self):
        c = SpanCollector()
        umbrella = c.add("dsu.update", "dsu", 0, 100)
        child = c.add("dsu.quiesce", "dsu", 0, 10,
                      parent=umbrella.span_id)
        assert child.parent_id == umbrella.span_id

    def test_close_enforces_stack_discipline(self):
        c = SpanCollector()
        outer = c.open("request", "gateway", 0)
        c.open("request", "gateway", 1)
        with pytest.raises(ValueError, match="innermost"):
            c.close(outer, 5)

    def test_phase_is_stamped_at_creation_and_validated(self):
        c = SpanCollector()
        before = c.add("request", "gateway", 0, 1)
        c.set_phase("mve-active")
        after = c.add("request", "gateway", 2, 3)
        assert (before.phase, after.phase) == ("normal", "mve-active")
        with pytest.raises(ValueError, match="unknown phase"):
            c.set_phase("warp-speed")
        assert c.phase == "mve-active"

    def test_overlap_is_clamped_and_open_spans_contribute_zero(self):
        c = SpanCollector()
        closed = c.add("dsu.quiesce", "dsu", 10, 20)
        opened = c.open("request", "gateway", 10)
        assert closed.overlap_ns(0, 100) == 10
        assert closed.overlap_ns(15, 17) == 2
        assert closed.overlap_ns(50, 60) == 0
        assert opened.overlap_ns(0, 100) == 0
        assert opened.duration_ns is None


# ---------------------------------------------------------------------------
# repro-span/1 validation
# ---------------------------------------------------------------------------


class TestValidation:
    def _round_trip(self, tmp_path):
        c = SpanCollector()
        span = c.open("request", "gateway", 0, client="c0")
        c.close(span, 5, answered=True)
        c.add("mve.ring-stall", "mve", 1, 3)
        path = tmp_path / "spans.jsonl"
        c.write_jsonl(str(path), experiment="unit")
        return path

    def test_round_trip_validates(self, tmp_path):
        path = self._round_trip(tmp_path)
        assert validate_span_file(str(path)) == []
        first = path.read_text().splitlines()[0]
        assert SPAN_SCHEMA in first

    def test_truncated_file_is_caught(self, tmp_path):
        path = self._round_trip(tmp_path)
        lines = path.read_text().splitlines()
        assert any("truncated" in p
                   for p in validate_span_lines(lines[:-1]))

    def test_malformed_lines_are_caught(self, tmp_path):
        path = self._round_trip(tmp_path)
        lines = path.read_text().splitlines()
        assert validate_span_lines([]) == ["span file is empty"]
        assert any("not JSON" in p
                   for p in validate_span_lines(["{nope", *lines[1:]]))
        bad_schema = lines[:]
        bad_schema[0] = '{"schema": "repro-span/0", "spans": 2}'
        assert any("schema" in p for p in validate_span_lines(bad_schema))
        bad_phase = lines[:]
        bad_phase[1] = bad_phase[1].replace('"normal"', '"sideways"')
        assert any("phase" in p for p in validate_span_lines(bad_phase))
        no_id = lines[:]
        no_id[1] = no_id[1].replace('"span": 1', '"span": "one"')
        assert any("'span'" in p for p in validate_span_lines(no_id))

    def test_phase_catalogue_is_the_upgrade_lifecycle(self):
        assert PHASES == ("normal", "mve-active", "quiesce-pause",
                          "promoted", "rolled-back")


# ---------------------------------------------------------------------------
# MVE9xx span hygiene (satellite: trace_lint)
# ---------------------------------------------------------------------------


class TestSpanHygiene:
    def test_bad_fixture_trips_all_three_rules(self):
        findings = lint_span_file(FIXTURE)
        codes = sorted(f.code for f in findings)
        assert codes == ["MVE901", "MVE902", "MVE903"]
        by_code = {f.code: f for f in findings}
        assert by_code["MVE901"].severity.value == "warning"
        assert by_code["MVE902"].severity.value == "error"
        assert by_code["MVE903"].severity.value == "error"
        # Locations are file:line, pointing at the offending span line.
        assert by_code["MVE902"].location.endswith(":4")

    def test_clean_collector_output_has_no_findings(self, tmp_path):
        c = SpanCollector()
        span = c.open("request", "gateway", 0)
        c.add("mve.ring-stall", "mve", 1, 2)
        c.close(span, 5)
        assert lint_spans(c.to_jsonl_lines("unit")) == []

    def test_unparseable_lines_are_skipped_not_fatal(self, tmp_path, capsys):
        header = '{"schema": "repro-span/1", "spans": 1}'
        span = ('{"span": 1, "parent": null, "kind": "request", '
                '"layer": "gateway", "start_ns": 0, "end_ns": 1, '
                '"phase": "normal"}')
        assert lint_spans([header, "{nope", span]) == []
        # Nor is a file that never becomes JSON at all (each was a
        # traceback out of ``lint --spans``): one schema problem, exit
        # 2, and no span line to lint.
        path = tmp_path / "spans.jsonl"
        deep = f"{header}\n{'[' * 100_000}{']' * 100_000}\n".encode()
        path.write_bytes(deep)
        assert lint_span_file(str(path)) == []
        for data, problem in [
                (b"\xff" + header.encode(),
                 "not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte)"),
                (deep, "line 2: not JSON (nests too deeply to decode)")]:
            path.write_bytes(data)
            assert validate_span_file(str(path)) == [problem]
            assert main(["lint", "--spans", str(path)]) == 2
            assert capsys.readouterr().err == \
                f"span schema problem: {problem}\n"
