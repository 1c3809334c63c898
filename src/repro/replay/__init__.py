"""Syscall-stream record/replay: persistent leader streams as artifacts.

``repro.replay`` turns the leader's syscall stream into a versioned
on-disk artifact (``repro-stream/1``, :mod:`repro.replay.stream`) via a
process-wide recorder (:mod:`repro.replay.recorder`) claimed by the
first MVE runtime, and re-drives candidate versions against recordings
offline (:mod:`repro.replay.engine`) — shadow testing of updates
against captured traffic, plus time-travel forensics for divergences.

Only the stream format and the recorder are imported here: the MVE
runtime hooks the recorder at construction time, so this package's
import-time footprint must stay cycle-free (the engine imports the app
catalog, :mod:`repro.apps`, and is pulled in lazily by the CLIs).
"""

from repro.replay.recorder import (StreamRecorder, current_recorder,
                                   install_recorder, recording,
                                   uninstall_recorder)
from repro.replay.stream import (STREAM_SCHEMA, RecordedStream, StreamError,
                                 read_stream, validate_stream_file,
                                 write_stream)

__all__ = [
    "STREAM_SCHEMA",
    "RecordedStream",
    "StreamError",
    "StreamRecorder",
    "current_recorder",
    "install_recorder",
    "read_stream",
    "recording",
    "uninstall_recorder",
    "validate_stream_file",
    "write_stream",
]
