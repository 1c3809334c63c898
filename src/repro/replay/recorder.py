"""``repro.replay.recorder:StreamRecorder.on_iteration/write`` — kept
only because the frozen probe table in ``hostbench/probes.py`` resolves
these names.

The stream recorder is the run log's one writer,
:class:`repro.obs.trace.Tracer`, installed in the recorder slot; import
it from :mod:`repro.obs.trace`.
"""

from repro.obs.trace import Tracer as StreamRecorder  # noqa: F401
