"""repro.obs — structured tracing, metrics, and divergence forensics.

Zero-cost when disabled: instrumented hot paths guard every hook with a
single ``is not None`` test; a tracer and a span collector are each
installed, independently, with :func:`repro.sites.observing`.  See
``docs/observability.md``.
"""

from repro.obs.forensics import ForensicsBundle, build_divergence_bundle
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.scenarios import TRACE_SCENARIOS, run_trace_scenario
from repro.obs.slo import SLO_SCHEMA, SloSpec, build_slo_report, validate_slo_report
from repro.obs.spans import (
    PHASES,
    SPAN_SCHEMA,
    Span,
    SpanCollector,
    validate_span_file,
    validate_span_lines,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceEvent,
    Tracer,
    validate_trace_file,
    validate_trace_lines,
)

__all__ = [
    "PHASES",
    "SLO_SCHEMA",
    "SPAN_SCHEMA",
    "SloSpec",
    "Span",
    "SpanCollector",
    "build_slo_report",
    "validate_slo_report",
    "validate_span_file",
    "validate_span_lines",
    "TRACE_SCHEMA",
    "TRACE_SCENARIOS",
    "run_trace_scenario",
    "TraceEvent",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ForensicsBundle",
    "build_divergence_bundle",
    "validate_trace_file",
    "validate_trace_lines",
]
