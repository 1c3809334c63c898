"""The run log's span records: zero-cost when disabled, dynamic-extent
parenting when enabled, the ``repro-run/1`` validators on span records,
and the MVE9xx span hygiene.

The zero-allocation tests mirror ``test_obs_overhead.py``: "free" is
asserted in counts, not wall-clock — :func:`tests.counting.counted`
wraps the writer's constructor and its one span entry (``_new_span``)
for the block, so this test can pin the disabled path to *zero span
objects*.
"""

import pytest

from repro.analysis.trace_lint import lint_span_file, lint_spans
from repro.cli import main
from repro.obs.trace import (
    PHASES,
    RUN_SCHEMA,
    Tracer,
    validate_file,
    validate_lines,
)
from repro.perf import run_scenarios
from repro.sites import OBS, observing
from tests.counting import counted

FIXTURE = "tests/fixtures/bad_spans.jsonl"


def run_rule_heavy_mve_redis(ops):
    """The rule-heavy Redis perf row's gauges after ``ops`` requests."""
    return run_scenarios(["rule-heavy-mve-redis"],
                         ops=ops)["rule-heavy-mve-redis"]


# ---------------------------------------------------------------------------
# Zero-allocation contract
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_no_tracer_allocates_no_spans(self):
        assert OBS.tracer is None and OBS.spans is None
        with counted(Tracer, "__init__", "_new_span") as calls:
            gauges = run_rule_heavy_mve_redis(32)

        # The workload really ran, through every instrumented hook...
        assert gauges["vrequests"] == 32
        assert gauges["syscalls"] > 0
        assert gauges["ring_high_watermark"] > 0
        # ...and not one span object was born.
        assert calls["__init__"] == 0
        assert calls["_new_span"] == 0

    def test_tracer_without_spans_allocates_no_spans(self):
        # The writer in the tracer slot alone must not wake the span
        # layer: the slot, not the writer, decides what is recorded.
        tracer = Tracer(experiment="span-overhead")
        with counted(Tracer, "_new_span") as calls, \
                observing(tracer=tracer):
            assert OBS.spans is None
            run_rule_heavy_mve_redis(8)
        assert tracer.spans == []
        assert tracer.events  # tracing itself did record
        assert calls["_new_span"] == 0

    def test_enabled_path_actually_records(self):
        # Control experiment: the same workload with spans installed
        # does record — proving the zeros above measure the guard, not
        # dead hooks.
        log = Tracer(experiment="span-control")
        with observing(tracer=log, spans=log):
            run_rule_heavy_mve_redis(8)
        tally = log.span_tally()
        assert tally.get("request", 0) == 8
        assert all(span.end_ns is not None
                   for span in log.request_spans())
        # One log, correlated: an event logged inside a request names it.
        requests = {span.span_id for span in log.of_kind("request")}
        assert requests & {event.parent for event in log.events}

    def test_report_cells_build_no_tracer(self):
        # The open-loop and SLO reports read spans only, so their cells
        # put a writer in the spans slot and none in the tracer slot:
        # the cells make syscalls, and a writer there would log each,
        # so no event record anywhere means no tracer-slot writer.
        from repro.obs.slo_scenarios import run_slo_cell
        from repro.workloads.openloop_scenarios import run_openloop_cell
        with counted(Tracer, "emit", "_stream") as calls:
            openloop = run_openloop_cell("kvstore", 4, seed=1, quick=True)
            slo = run_slo_cell("fig7", 0, seed=1, quick=True)
        assert calls["emit"] + calls["_stream"] == 0
        assert openloop["slo_cell"]["spans"] > 0 and slo["spans"] > 0


# ---------------------------------------------------------------------------
# Collector semantics
# ---------------------------------------------------------------------------


class TestCollector:
    def test_dynamic_extent_parenting(self):
        c = Tracer()
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
        assert [s.span_id for s in c.spans
                if s.parent_id == inner.span_id] == [stall.span_id]

    def test_explicit_parent_overrides_the_stack(self):
        c = Tracer()
        umbrella = c.add("dsu.update", "dsu", 0, 100)
        child = c.add("dsu.quiesce", "dsu", 0, 10,
                      parent=umbrella.span_id)
        assert child.parent_id == umbrella.span_id

    def test_close_enforces_stack_discipline(self):
        c = Tracer()
        outer = c.open("request", "gateway", 0)
        c.open("request", "gateway", 1)
        with pytest.raises(ValueError, match="innermost"):
            c.close(outer, 5)

    def test_phase_is_stamped_at_creation_and_validated(self):
        # The phase is the run's (``OBS.phase``), read when a span is
        # created; the validator holds it to the lifecycle.
        c = Tracer()
        with observing(spans=c):
            before = c.add("request", "gateway", 0, 1)
            OBS.phase = "mve-active"
            after = c.add("request", "gateway", 2, 3)
            OBS.phase = "warp-speed"
            c.add("request", "gateway", 4, 5)
        assert (before.phase, after.phase) == ("normal", "mve-active")
        assert OBS.phase == "normal"      # the block's run is over
        problems = validate_lines(c.to_jsonl_lines())
        assert len(problems) == 1 and "line 4: 'phase'" in problems[0]

    def test_overlap_is_clamped_and_open_spans_contribute_zero(self):
        c = Tracer()
        closed = c.add("dsu.quiesce", "dsu", 10, 20)
        opened = c.open("request", "gateway", 10)
        assert closed.overlap_ns(0, 100) == 10
        assert closed.overlap_ns(15, 17) == 2
        assert closed.overlap_ns(50, 60) == 0
        assert opened.overlap_ns(0, 100) == 0
        assert opened.end_ns is None


# ---------------------------------------------------------------------------
# repro-run/1 validation (span records)
# ---------------------------------------------------------------------------


class TestValidation:
    def _round_trip(self, tmp_path):
        c = Tracer(experiment="unit")
        span = c.open("request", "gateway", 0, client="c0")
        c.close(span, 5, answered=True)
        c.add("mve.ring-stall", "mve", 1, 3)
        path = tmp_path / "spans.jsonl"
        c.write(str(path))
        return path

    def test_round_trip_validates(self, tmp_path):
        path = self._round_trip(tmp_path)
        assert validate_file(str(path)) == []
        first = path.read_text().splitlines()[0]
        assert RUN_SCHEMA in first

    def test_truncated_file_is_caught(self, tmp_path):
        path = self._round_trip(tmp_path)
        lines = path.read_text().splitlines()
        # Drop a record: the header's count and the closing line notice.
        assert any("truncated" in p
                   for p in validate_lines(lines[:1] + lines[2:]))

    def test_malformed_lines_are_caught(self, tmp_path):
        path = self._round_trip(tmp_path)
        lines = path.read_text().splitlines()
        assert validate_lines([]) == ["run log is empty"]
        assert any("not JSON" in p
                   for p in validate_lines(["{nope", *lines[1:]]))
        bad_schema = lines[:]
        bad_schema[0] = '{"schema": "repro-span/1", "spans": 2}'
        assert any("schema" in p for p in validate_lines(bad_schema))
        bad_phase = lines[:]
        bad_phase[1] = bad_phase[1].replace('"normal"', '"sideways"')
        assert any("phase" in p for p in validate_lines(bad_phase))
        no_id = lines[:]
        no_id[1] = no_id[1].replace('"span": 1', '"span": 0')
        assert any("'span'" in p for p in validate_lines(no_id))
        # A span kind is not an event kind: without its id the record
        # is judged as an event, and "request" is no event.
        no_span = lines[:]
        no_span[1] = no_span[1].replace('"span": 1, ', '')
        assert any("'kind'" in p for p in validate_lines(no_span))

    def test_phase_catalogue_is_the_upgrade_lifecycle(self):
        assert PHASES == ("normal", "mve-active", "quiesce-pause",
                          "promoted", "rolled-back")


# ---------------------------------------------------------------------------
# MVE9xx span hygiene (satellite: trace_lint)
# ---------------------------------------------------------------------------


class TestSpanHygiene:
    def test_bad_fixture_trips_all_three_rules(self):
        # The fixture is schema-valid: hygiene is all that is wrong.
        assert validate_file(FIXTURE) == []
        findings = lint_span_file(FIXTURE)
        codes = sorted(f.code for f in findings)
        assert codes == ["MVE901", "MVE902", "MVE902", "MVE902", "MVE903"]
        by_code = {f.code: f for f in findings}
        assert by_code["MVE901"].severity.value == "warning"
        assert by_code["MVE902"].severity.value == "error"
        assert by_code["MVE903"].severity.value == "error"
        # Locations are file:line, pointing at the offending span line:
        # the orphan (4), the duplicate id (6), the self-parent (7).
        assert [f.location.rsplit(":", 1)[1] for f in findings
                if f.code == "MVE902"] == ["4", "6", "7"]

    def test_clean_collector_output_has_no_findings(self, tmp_path):
        c = Tracer(experiment="unit")
        span = c.open("request", "gateway", 0)
        c.add("mve.ring-stall", "mve", 1, 2)
        c.close(span, 5)
        assert lint_spans(c.to_jsonl_lines()) == []

    def test_event_records_are_skipped_not_linted(self):
        # A correlated log (both slots) lints its span records only.
        c = Tracer()
        with observing(tracer=c, spans=c):
            span = c.open("request", "gateway", 0)
            c.emit("dsu.request", "dsu", at=1)
            c.close(span, 5)
        lines = c.to_jsonl_lines()
        assert len(lines) == 4 and '"parent": 1' in lines[2]
        assert validate_lines(lines) == [] and lint_spans(lines) == []

    def test_unparseable_lines_are_skipped_not_fatal(self, tmp_path, capsys):
        header = '{"schema": "repro-run/1", "records": 1}'
        span = ('{"at": 0, "kind": "request", "layer": "gateway", '
                '"parent": null, "span": 1, "end": 1, "phase": "normal"}')
        assert lint_spans([header, "{nope", span]) == []
        # Nor is a file that never becomes JSON at all (each was a
        # traceback out of ``lint --spans``): one schema problem, exit
        # 2, and no span line to lint.
        path = tmp_path / "spans.jsonl"
        snapshot = '{"kind": "metrics.snapshot", "metrics": {}}'
        deep = (f"{header}\n{'[' * 100_000}{']' * 100_000}\n{snapshot}\n"
                .encode())
        path.write_bytes(deep)
        assert lint_span_file(str(path)) == []
        for data, problem in [
                (b"\xff" + header.encode(),
                 "not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte)"),
                (deep, "line 2: not JSON (nests too deeply to decode)")]:
            path.write_bytes(data)
            assert validate_file(str(path)) == [problem]
            assert main(["lint", "--spans", str(path)]) == 2
            assert capsys.readouterr().err == \
                f"span schema problem: {problem}\n"
