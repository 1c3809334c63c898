"""``repro.obs.spans:SpanCollector.open/close/add`` — kept only because
the frozen probe table in ``hostbench/probes.py`` resolves these names.

The span collector is the run log's one writer,
:class:`repro.obs.trace.Tracer`, installed in the spans slot; import it
from :mod:`repro.obs.trace`.
"""

from repro.obs.trace import Tracer as SpanCollector  # noqa: F401
