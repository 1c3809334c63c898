"""Satellite regression: tracing disabled must cost nothing, and tracing
enabled must build nothing nobody reads.

Both are asserted in counts, not wall-clock: the rule-heavy Redis perf
scenario runs a full MVE catch-up workload; with no tracer installed
the observability layer may create zero tracers and emit zero trace
events, and with one installed every event is a log entry but no
:class:`~repro.obs.trace.TraceEvent` exists until ``.events`` is read.
The counts are the test's own: :func:`tests.counting.counted` wraps the
writer's constructor, its two log appends (``emit``, ``_stream``) and
``TraceEvent``'s constructor for the block.
"""

from repro.obs import Tracer
from repro.obs.trace import TraceEvent
from repro.perf import run_scenarios
from repro.sites import OBS, observing
from tests.counting import counted

#: The writer's entries that build it or append an event to its log.
BUILT_OR_LOGGED = ("__init__", "emit", "_stream")


def run_rule_heavy_mve_redis(ops):
    """The rule-heavy Redis perf row's gauges after ``ops`` requests."""
    return run_scenarios(["rule-heavy-mve-redis"],
                         ops=ops)["rule-heavy-mve-redis"]


def test_disabled_path_creates_and_emits_nothing():
    assert (OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder) == \
        (None, None, None, None)
    with counted(Tracer, *BUILT_OR_LOGGED) as calls:
        gauges = run_rule_heavy_mve_redis(32)

    # The workload really ran...
    assert gauges["vrequests"] == 32
    assert gauges["syscalls"] > 0
    assert gauges["ring_high_watermark"] > 0
    # ...and the observability layer never woke up.
    assert calls["__init__"] == 0
    assert calls["emit"] + calls["_stream"] == 0


def test_enabled_path_actually_records():
    # Control experiment: the same workload with a tracer installed does
    # emit — proving the zero above measures the guard, not dead hooks.
    tracer = Tracer(experiment="overhead-control")
    with observing(tracer=tracer):
        run_rule_heavy_mve_redis(8)
    assert tracer.events
    assert tracer.metrics()["syscalls.total"]["value"] > 0


def test_enabled_path_builds_no_event_objects_until_they_are_read():
    with counted(Tracer, *BUILT_OR_LOGGED) as calls, \
            counted(TraceEvent, "__init__") as built:
        tracer = Tracer(experiment="overhead-enabled")
        with observing(tracer=tracer):
            gauges = run_rule_heavy_mve_redis(32)

        assert gauges["vrequests"] == 32
        count = tracer.event_count
        assert count > gauges["syscalls"]   # iterations, ring, checks, ...
        assert calls["emit"] + calls["_stream"] == count
        # Counting, tallying and exporting all work off the log.
        assert sum(tracer.kind_tally().values()) == count
        assert len(tracer.to_jsonl_lines()) == count + 2
        assert built["__init__"] == 0
        # Reading the events builds each exactly once, however often.
        assert len(tracer.events) == count
        assert built["__init__"] == count
        assert len(tracer.events) == count
        assert built["__init__"] == count
