"""Syscall-stream record/replay: the leader's stream, read back out of a
run log, re-drives candidate versions offline.

The run log's one writer (:class:`repro.obs.trace.Tracer`) records the
stream from the recorder slot (:func:`repro.sites.observing`), claimed
by the first MVE runtime constructed while it is installed.
:mod:`repro.replay.stream` reads that stream back out of a
``repro-run/1`` log, and :mod:`repro.replay.engine` re-drives a
candidate version against it — shadow testing of updates against
captured traffic, plus time-travel forensics for divergences.

Nothing is imported here: the engine imports the app catalog,
:mod:`repro.apps`, and is pulled in lazily by the CLIs.
"""
