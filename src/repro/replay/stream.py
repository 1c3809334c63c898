"""The ``repro-stream/1`` artifact: a persisted leader syscall stream.

A recorded stream turns the leader's syscall/ring traffic into a
first-class, versioned artifact — following DiOS-style reproducible
execution: re-driving a follower (or a *candidate* new version) against
the recording reproduces the original divergence verdict offline, with
no workload, kernel scheduling, or chaos plan required at replay time.

Framing is **length-prefixed JSONL**: every line is

    ``XXXXXXXX <json>\\n``

where ``XXXXXXXX`` is the zero-padded lower-case hex byte length of the
UTF-8 ``<json>`` payload that follows the single separating space.  The
prefix makes truncation and in-place corruption detectable without
parsing: a reader checks the arithmetic before it ever calls
``json.loads``.  Entry order is the recording order:

* exactly one ``header`` first — schema id, app, scenario, the initial
  leader version, cost profile, ring capacity, and the fault plan in
  force (``null`` for a fault-free recording);
* ``iter`` entries — one leader event-loop iteration: completion time,
  the emitting leader's version, whether a follower was attached, and
  the iteration's syscall records *before* rewrite rules (rules are a
  replay-side concern: the same stream can be replayed against any
  candidate version);
* ``fork`` / ``control`` entries — follower attach points and
  promote/crash-promote markers, so replay knows which version produced
  each segment of the stream;
* exactly one ``footer`` last — iteration/record/control totals, which
  double as an integrity check.

Record payload bytes are stored as latin-1 strings (reversible for any
byte value); tuple results are tagged so they round-trip as tuples.

This module imports only the standard library plus the leaf modules
``repro.errors``, ``repro.report`` and ``repro.syscalls.model`` so the
recorder hook in ``repro.mve.varan`` can depend on it without cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.report import (ANY, BOOL, BYTES, INT, NAT, STR, TEXT, ListOf, MapOf,
                          Obj, Opt, Via, const, decode, one_of, problems,
                          read_lines)
from repro.syscalls.model import Sys, SyscallRecord

#: Stream artifact schema identifier (bump on shape changes).
STREAM_SCHEMA = "repro-stream/1"


class StreamError(SimulationError):
    """A malformed or unreadable ``repro-stream/1`` artifact."""


# ---------------------------------------------------------------------------
# Record (de)serialization
# ---------------------------------------------------------------------------

def serialize_record(record: SyscallRecord) -> Dict[str, Any]:
    """One syscall record as JSON-ready data (reversible)."""
    entry: Dict[str, Any] = {"sys": record.name.value, "fd": record.fd}
    if record.data:
        entry["data"] = record.data.decode("latin-1")
    if record.result is not None:
        entry["result"] = _serialize_result(record.result)
    if record.aux:
        entry["aux"] = {str(k): v for k, v in record.aux.items()}
    return entry


def _serialize_result(result: Any) -> Any:
    if isinstance(result, (list, tuple)):
        return {"t": [_serialize_result(item) for item in result]}
    if isinstance(result, bytes):
        return {"b": result.decode("latin-1")}
    return result


def _deserialize_result(result: Any) -> Any:
    if isinstance(result, dict):
        if "t" in result:
            return tuple(_deserialize_result(item) for item in result["t"])
        if "b" in result:
            return result["b"].encode("latin-1")
    return result


def deserialize_record(entry: Dict[str, Any]) -> SyscallRecord:
    """Rebuild a :class:`SyscallRecord` from its serialized form."""
    try:
        name = Sys(entry["sys"])
    except (KeyError, ValueError) as exc:
        raise StreamError(f"bad syscall record entry: {entry!r}") from exc
    kwargs: Dict[str, Any] = {}
    if "aux" in entry:
        kwargs["aux"] = dict(entry["aux"])
    return SyscallRecord(name, fd=int(entry.get("fd", -1)),
                         data=entry.get("data", "").encode("latin-1"),
                         result=_deserialize_result(entry.get("result")),
                         **kwargs)


# ---------------------------------------------------------------------------
# Length-prefixed framing
# ---------------------------------------------------------------------------

#: Canonical JSON text of a value: sorted keys, compact separators and
#: (the encoder's default) every non-ASCII character escaped, so the
#: text's byte length is its ``len``.
canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def frame_line(payload: Dict[str, Any]) -> str:
    """One length-prefixed JSONL line (without the trailing newline)."""
    body = canonical(payload)
    return f"{len(body):08x} {body}"


def unframe_line(line: str, index: int) -> Dict[str, Any]:
    """Parse one framed line, checking the length prefix first."""
    if len(line) < 10 or line[8] != " ":
        raise StreamError(f"line {index}: missing length prefix")
    try:
        declared = int(line[:8], 16)
    except ValueError:
        raise StreamError(f"line {index}: bad length prefix "
                          f"{line[:8]!r}") from None
    body = line[9:]
    # What an encoder here wrote is ASCII; other text is measured as the
    # UTF-8 it would be on disk (a lone surrogate included, so that it
    # is a length mismatch or a shape problem, never an encode error).
    actual = len(body) if body.isascii() \
        else len(body.encode("utf-8", "surrogatepass"))
    if actual != declared:
        raise StreamError(f"line {index}: length prefix says {declared} "
                          f"bytes but the payload has {actual} "
                          f"(truncated or corrupted artifact)")
    try:
        payload = decode(body)
    except ValueError as exc:
        raise StreamError(f"line {index}: bad JSON payload: {exc}") from None
    if not isinstance(payload, dict):
        raise StreamError(f"line {index}: entry is not an object")
    return payload


# ---------------------------------------------------------------------------
# Shapes (everything StreamRecorder.write can produce) and the in-memory form
# ---------------------------------------------------------------------------

#: Results nest: a tuple is stored as ``{"t": [results]}``, bytes as
#: ``{"b": latin-1}``, and anything else as itself.
RESULT_SHAPE = Via(ANY, lambda result: problems(result, TAGGED_SHAPE)
                   if isinstance(result, dict) else [])
TAGGED_SHAPE = Obj({}, {"t": ListOf(RESULT_SHAPE), "b": BYTES})
RECORD_SHAPE = Obj({"sys": one_of(sys.value for sys in Sys), "fd": INT},
                   {"data": BYTES, "result": RESULT_SHAPE,
                    "aux": MapOf(ANY)})

HEADER_SHAPE = Obj({
    "type": const("header"), "schema": const(STREAM_SCHEMA), "app": TEXT,
    "scenario": STR, "initial_version": TEXT, "ring_capacity": INT,
    "listen_fd": INT, "epoll_fd": INT,
}, {"profile": STR, "fault_plan": Opt(Obj({}))})

#: Entry type -> shape, for every entry legal after the header.
ENTRY_SHAPES = {
    "iter": Obj({"at": INT, "version": STR, "mve": BOOL,
                 "records": ListOf(RECORD_SHAPE)}),
    "fork": Obj({"at": INT, "version": STR}),
    "control": Obj({"kind": TEXT, "at": INT, "version": STR,
                    "new_leader": STR}),
    "footer": Obj({"iterations": NAT, "records": NAT, "controls": NAT}),
}
ENTRY_TYPES = tuple(ENTRY_SHAPES)


@dataclass
class RecordedStream:
    """A parsed ``repro-stream/1`` artifact."""

    #: Header metadata (scenario, app, versions, fault plan, ...).
    header: Dict[str, Any]
    #: Every non-header, non-footer entry, in recording order.
    entries: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def app(self) -> str:
        return self.header.get("app", "")

    @property
    def scenario(self) -> str:
        return self.header.get("scenario", "")

    @property
    def initial_version(self) -> str:
        return self.header.get("initial_version", "")

    @property
    def fault_plan(self) -> Optional[Dict[str, Any]]:
        return self.header.get("fault_plan")

    def iterations(self) -> List[Dict[str, Any]]:
        return [entry for entry in self.entries if entry["type"] == "iter"]

    def record_count(self) -> int:
        return sum(len(entry["records"]) for entry in self.iterations())


def write_stream(path: str, header: Dict[str, Any],
                 entries: Iterable[Dict[str, Any]]) -> int:
    """Write a framed stream artifact; returns the entry count written
    (including header and footer)."""
    iterations = records = controls = 0
    lines = [frame_line(header)]
    for entry in entries:
        if entry.get("type") == "iter":
            iterations += 1
            records += len(entry.get("records", ()))
        elif entry.get("type") == "control":
            controls += 1
        lines.append(frame_line(entry))
    lines.append(frame_line({"type": "footer", "iterations": iterations,
                             "records": records, "controls": controls}))
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def _shaped(entry: Dict[str, Any], shape: Any, where: str,
            path: str) -> Dict[str, Any]:
    """``entry``, or :class:`StreamError` saying how it is no ``shape``."""
    found = problems(entry, shape, where)
    if found:
        raise StreamError(f"{path}: " + "; ".join(found))
    return entry


def read_stream(path: str) -> RecordedStream:
    """Parse a stream artifact, raising :class:`StreamError` on any
    framing, shape, or integrity problem: what it returns is everything
    :func:`repro.replay.engine.replay_stream` relies on."""
    try:
        lines = read_lines(path)
    except UnicodeDecodeError as exc:
        raise StreamError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise StreamError(f"{path}: empty stream artifact")
    header = _shaped(unframe_line(lines[0], 0), HEADER_SHAPE, "header", path)
    entries: List[Dict[str, Any]] = []
    footer: Optional[Dict[str, Any]] = None
    for index, line in enumerate(lines[1:], start=1):
        entry = unframe_line(line, index)
        kind = entry.get("type")
        if footer is not None:
            raise StreamError(f"line {index}: entry after the footer")
        if kind not in ENTRY_TYPES:
            raise StreamError(f"line {index}: unknown entry type {kind!r}")
        _shaped(entry, ENTRY_SHAPES[kind], f"entry {index - 1}", path)
        if kind == "footer":
            footer = entry
        else:
            entries.append(entry)
    if footer is None:
        raise StreamError(f"{path}: missing footer (truncated artifact)")
    stream = RecordedStream(header=header, entries=entries)
    controls = sum(1 for e in entries if e["type"] == "control")
    for key, have in (("iterations", len(stream.iterations())),
                      ("records", stream.record_count()),
                      ("controls", controls)):
        if footer[key] != have:
            raise StreamError(
                f"{path}: footer says {footer[key]} {key} but the "
                f"stream holds {have} (truncated artifact)")
    return stream


def validate_stream_file(path: str) -> List[str]:
    """Problems with a stream artifact (empty list means valid): the
    reason :func:`read_stream` refuses it, if it does."""
    try:
        read_stream(path)
    except (OSError, StreamError) as exc:
        return [str(exc)]
    return []
