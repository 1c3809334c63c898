"""Syscall-stream record/replay: persistent leader streams as artifacts.

``repro.replay`` turns the leader's syscall stream into a versioned
on-disk artifact (``repro-stream/1``, :mod:`repro.replay.stream`) via a
recorder (:mod:`repro.replay.recorder`, installed with
:func:`repro.sites.observing`) claimed by the first MVE runtime, and
re-drives candidate versions against recordings
offline (:mod:`repro.replay.engine`) — shadow testing of updates
against captured traffic, plus time-travel forensics for divergences.

Only the stream format and the recorder are imported here; the engine
imports the app catalog, :mod:`repro.apps`, and is pulled in lazily by
the CLIs.
"""

from repro.replay.recorder import StreamRecorder
from repro.replay.stream import (STREAM_SCHEMA, RecordedStream, StreamError,
                                 read_stream, validate_stream_file,
                                 write_stream)

__all__ = [
    "STREAM_SCHEMA",
    "RecordedStream",
    "StreamError",
    "StreamRecorder",
    "read_stream",
    "validate_stream_file",
    "write_stream",
]
