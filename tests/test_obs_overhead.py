"""Satellite regression: tracing disabled must cost nothing, and tracing
enabled must build nothing nobody reads.

Both are asserted in counts, not wall-clock: the rule-heavy Redis perf
scenario runs a full MVE catch-up workload; with no tracer installed
the observability layer may create zero tracers and emit zero trace
events, and with one installed every event is a log entry but no
:class:`~repro.obs.trace.TraceEvent` exists until ``.events`` is read.
:class:`~repro.obs.trace.Tracer` keeps process-lifetime class tallies
exactly for this test.
"""

from repro.obs import Tracer
from repro.perf import run_scenarios
from repro.sites import OBS, observing


def run_rule_heavy_mve_redis(ops):
    """The rule-heavy Redis perf row's gauges after ``ops`` requests."""
    return run_scenarios(["rule-heavy-mve-redis"],
                         ops=ops)["rule-heavy-mve-redis"]


def test_disabled_path_creates_and_emits_nothing():
    assert (OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder) == \
        (None, None, None, None)
    created_before = Tracer.created_total
    emitted_before = Tracer.emitted_total

    gauges = run_rule_heavy_mve_redis(32)

    # The workload really ran...
    assert gauges["vrequests"] == 32
    assert gauges["syscalls"] > 0
    assert gauges["ring_high_watermark"] > 0
    # ...and the observability layer never woke up.
    assert Tracer.created_total == created_before
    assert Tracer.emitted_total == emitted_before


def test_enabled_path_actually_records():
    # Control experiment: the same workload with a tracer installed does
    # emit — proving the zero above measures the guard, not dead hooks.
    tracer = Tracer(experiment="overhead-control")
    with observing(tracer=tracer):
        run_rule_heavy_mve_redis(8)
    assert tracer.events
    assert tracer.metrics.snapshot()["syscalls.total"]["value"] > 0


def test_enabled_path_builds_no_event_objects_until_they_are_read():
    emitted_before = Tracer.emitted_total
    built_before = Tracer.materialised_total

    tracer = Tracer(experiment="overhead-enabled")
    with observing(tracer=tracer):
        gauges = run_rule_heavy_mve_redis(32)

    assert gauges["vrequests"] == 32
    count = tracer.event_count
    assert count > gauges["syscalls"]       # kernel + gateway + ring + ...
    assert Tracer.emitted_total == emitted_before + count
    # Counting, tallying and exporting all work off the log.
    assert sum(tracer.kind_tally().values()) == count
    assert len(tracer.to_jsonl_lines()) == count + 2
    assert Tracer.materialised_total == built_before
    # Reading the events builds each exactly once, however often.
    assert len(tracer.events) == count
    assert Tracer.materialised_total == built_before + count
    assert len(tracer.events) == count
    assert Tracer.materialised_total == built_before + count
