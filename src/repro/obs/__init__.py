"""repro.obs — the run log (trace events, spans, the metrics folded from
them), SLO accounting, and divergence forensics.

Zero-cost when disabled: instrumented hot paths guard every hook with a
single ``is not None`` test; the run log's one writer is installed in
the tracer slot, the spans slot or both with
:func:`repro.sites.observing`.  See ``docs/observability.md``.
"""

from repro.obs.forensics import build_divergence_bundle
from repro.obs.metrics import Histogram
from repro.obs.slo import SLO_SCHEMA, SloSpec, build_slo_report, validate_slo_report
from repro.obs.trace import (
    PHASES,
    RUN_SCHEMA,
    Span,
    TraceEvent,
    Tracer,
    validate_file,
    validate_lines,
)

__all__ = [
    "PHASES",
    "RUN_SCHEMA",
    "SLO_SCHEMA",
    "SloSpec",
    "Span",
    "build_slo_report",
    "validate_slo_report",
    "TraceEvent",
    "Tracer",
    "Histogram",
    "build_divergence_bundle",
    "validate_file",
    "validate_lines",
]
