"""A recorded stream: the leader's syscall stream, read out of a run log.

Re-driving a follower (or a *candidate* new version) against a
recording reproduces the original divergence verdict offline, with no
workload, kernel scheduling or chaos plan at replay time — DiOS-style
reproducible execution.  The recording is the ``stream.*`` records the
run log's one writer (:class:`repro.obs.trace.Tracer`) logs from the
recorder slot, in order with whatever else the run logged: one
``stream.claim`` (app, initial version, fd labels, fault plan), a
``stream.record`` per leader iteration (its syscall records before
rewrite rules) and a ``stream.promote`` / ``stream.crash-promote``
wherever leadership changed (``docs/replay.md``).

:func:`read_stream` is the one reader: the run log's header count and
closing snapshot catch truncation, the shapes below what replay would
otherwise have to defend against, and each record's ``len``
(:func:`repro.obs.trace.stream_len`) an in-place edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.mve.gateway import ERRNO_CLASSES, RECORDED_ERRORS
from repro.net.ring_wire import untagged
from repro.obs.trace import stream_len, validate_lines
from repro.report import (ANY, BOOL, BYTES, INT, NAT, STR, TEXT, Leaf, ListOf,
                          Obj, Opt, Via, decode, one_of, problems, read_lines)
from repro.syscalls.model import Sys, SyscallRecord


class StreamError(SimulationError):
    """A file that holds no readable recording."""


# ---------------------------------------------------------------------------
# Record deserialization (serialization is the writer's:
# repro.obs.trace.serialize_record; results are untagged by the ring
# wire's decoder, which inverts the same tagging)
# ---------------------------------------------------------------------------

def deserialize_record(entry: Dict[str, Any]) -> SyscallRecord:
    """Rebuild a :class:`SyscallRecord` from a record that has the
    shape :data:`RECORD_SHAPE` declares."""
    kwargs: Dict[str, Any] = {}
    if "aux" in entry:
        kwargs["aux"] = dict(entry["aux"])
    return SyscallRecord(Sys(entry["sys"]), fd=entry["fd"],
                         data=entry.get("data", "").encode("latin-1"),
                         result=untagged(entry.get("result")),
                         **kwargs)


# ---------------------------------------------------------------------------
# Shapes: everything the writer's recorder slot can produce
# ---------------------------------------------------------------------------

#: Results nest: a tuple is stored as ``{"t": [results]}``, bytes as
#: ``{"b": latin-1}``, and anything else as itself.
RESULT_SHAPE = Via(ANY, lambda result: problems(result, TAGGED_SHAPE)
                   if isinstance(result, dict) else [])
TAGGED_SHAPE = Obj({}, {"t": ListOf(RESULT_SHAPE), "b": BYTES})

#: What the ``REPLAY`` gateway hands back to the candidate, by syscall:
#: ``epoll_wait``'s ready set, the fd ``accept``/``connect``/``listen``
#: return, and a ``stat``-family answer (a size or null, a bool, a
#: listing).  Any other result is compared or ignored, never returned.
REPLAYED_RESULTS = {
    "epoll_wait": Obj({"t": ListOf(INT)}),
    "accept": INT,
    "connect": INT,
    "listen": INT,
    "stat": Leaf("null, an int, a bool or a tagged list of names",
                 lambda value: value is None or type(value) in (int, bool)
                 or (type(value) is dict and list(value) == ["t"]
                     and type(value["t"]) is list
                     and all(type(name) is str for name in value["t"]))),
}


def _replayed(record: Dict[str, Any]) -> List[str]:
    """What a record's syscall hands the candidate is what the gateway
    can hand it: an ``aux`` error the syscall records
    (:data:`~repro.mve.gateway.RECORDED_ERRORS`), and a result of the
    type :data:`REPLAYED_RESULTS` names — which only ``stat`` (null) and
    a failed ``accept`` (its error is raised instead) go without."""
    name = record["sys"]
    error = record.get("aux", {}).get("error")
    if error is not None and name in RECORDED_ERRORS:
        found = problems(error, one_of(RECORDED_ERRORS[name]),
                         "'aux' 'error'")
        if found:
            return found
    shape = REPLAYED_RESULTS.get(name)
    if shape is None:
        return []
    if "result" in record:
        return problems(record["result"], shape, "'result'")
    if name == "stat" or (name == "accept" and error is not None):
        return []
    return [f"missing 'result', which {name} returns"]


RECORD_SHAPE = Via(Obj({"sys": one_of(sys.value for sys in Sys), "fd": INT},
                       {"data": BYTES, "result": RESULT_SHAPE,
                        "aux": Obj({}, {"error": one_of(ERRNO_CLASSES)})}),
                   _replayed)


def _len_holds(record: Dict[str, Any]) -> List[str]:
    actual = stream_len(record)
    if record["len"] == actual:
        return []
    return [f"len says {record['len']} bytes but the payload has "
            f"{actual} (edited in place?)"]


def _stream_shape(fields: Dict[str, Any]) -> Via:
    return Via(Obj({**fields, "len": NAT}), _len_holds)


_CONTROL_SHAPE = _stream_shape({"version": STR, "new_leader": STR})

#: Stream record kind -> shape, ``len`` checked last.
STREAM_SHAPES = {
    "stream.claim": _stream_shape({
        "app": TEXT, "initial_version": TEXT, "profile": STR,
        "ring_capacity": INT, "listen_fd": INT, "epoll_fd": INT,
        "fault_plan": Opt(Obj({}))}),
    "stream.record": _stream_shape({
        "version": STR, "mve": BOOL, "count": NAT,
        "records": ListOf(RECORD_SHAPE)}),
    "stream.promote": _CONTROL_SHAPE,
    "stream.crash-promote": _CONTROL_SHAPE,
}

#: The run log header's label, the recording's scenario.
_HEADER_SHAPE = Obj({}, {"experiment": STR})


@dataclass
class RecordedStream:
    """A stream read back out of a run log."""

    #: The run log's ``experiment`` label: the scenario recorded.
    scenario: str
    #: The ``stream.claim`` record (app, versions, fd labels, ...).
    claim: Dict[str, Any]
    #: ``(position, record)`` of every ``stream.record``,
    #: ``stream.promote`` and ``stream.crash-promote``, in log order;
    #: ``position`` is the record's 0-based index among the log's
    #: records (its line is ``position + 2``).
    entries: List[Tuple[int, Dict[str, Any]]]

    @property
    def app(self) -> str:
        return self.claim["app"]

    @property
    def initial_version(self) -> str:
        return self.claim["initial_version"]

    def iterations(self) -> List[Dict[str, Any]]:
        return [record for _, record in self.entries
                if record["kind"] == "stream.record"]

    def record_count(self) -> int:
        return sum(len(record["records"]) for record in self.iterations())


def read_stream(path: str) -> RecordedStream:
    """The stream recorded into the ``repro-run/1`` log at ``path``.

    Raises :class:`StreamError` naming the first reason the file is no
    recording — not UTF-8, not a valid run log (truncation included),
    a misshapen stream record or one whose ``len`` disagrees, a stream
    record before the claim, no claim at all: what it returns is
    everything :func:`repro.replay.engine.replay_stream` relies on."""
    try:
        lines = read_lines(path)
    except UnicodeDecodeError as exc:
        raise StreamError(f"{path}: not UTF-8 text ({exc})") from None
    found = validate_lines(lines)
    if not found:
        header = decode(lines[0])
        found = problems(header, _HEADER_SHAPE, "line 1:")
    if found:
        raise StreamError(f"{path}: {found[0]}")
    claim: Optional[Dict[str, Any]] = None
    entries: List[Tuple[int, Dict[str, Any]]] = []
    for position, line in enumerate(lines[1:-1]):
        record = decode(line)
        kind = record["kind"]
        if kind not in STREAM_SHAPES:
            continue
        where = f"line {position + 2}:"
        found = problems(record, STREAM_SHAPES[kind], where)
        if found:
            raise StreamError(f"{path}: " + "; ".join(found))
        if kind == "stream.claim":
            if claim is not None:
                raise StreamError(f"{path}: {where} a second stream.claim")
            claim = record
        elif claim is None:
            raise StreamError(f"{path}: {where} {kind} before the "
                              f"stream.claim")
        else:
            entries.append((position, record))
    if claim is None:
        raise StreamError(f"{path}: no stream.claim: nothing was recorded "
                          f"into this run log")
    return RecordedStream(header.get("experiment", ""), claim, entries)
