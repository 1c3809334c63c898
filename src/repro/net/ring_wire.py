"""The ``repro-ring/1`` wire protocol: the ring buffer over a link.

A distributed MVE pair (see :mod:`repro.mve.distring`) ships the
leader's syscall stream to a follower on another fleet node as
*frames*: one frame per published burst, carrying the burst's
:class:`~repro.syscalls.model.SyscallRecord` payloads (or one control
event) coalesced into a single length-prefixed line.  The framing is
deliberately the same shape as the ``repro-stream/1`` artifact format —
an 8-hex-digit byte length, one space, a canonical-JSON body — so the
same truncation/garbage detection applies on the wire as on disk.

Each frame carries a monotonically increasing ``seq``; the receiver
acknowledges frames by sequence number, and the sender bounds the
number of unacknowledged frames in flight with
:attr:`RingLink.window`.  A full window maps onto the existing
ring-stall accounting: the leader blocks exactly as it does when the
local ring is full, so Figure 7's back-pressure story extends to
network back-pressure unchanged.

:class:`RingLink` is the declared cost model of the leader→follower
link — propagation latency, bandwidth, window, and the partition
demotion timeout.  :func:`transit_ns` turns a frame's byte size into
virtual transit time; everything stays integer nanoseconds so
distributed runs are as bit-reproducible as local ones.
"""

from __future__ import annotations

import json.encoder
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.mve.events import ControlEvent, ControlKind
from repro.replay.stream import canonical, frame_line, unframe_line
from repro.syscalls.model import EMPTY_AUX, Sys, SyscallRecord

#: Wire protocol identifier, stamped into every frame (bump on shape
#: changes; receivers reject anything else).
RING_WIRE_SCHEMA = "repro-ring/1"

#: What one frame can carry (mirrors the ring buffer's Payload).
Payload = Union[SyscallRecord, ControlEvent]


class WireError(SimulationError):
    """A malformed, truncated, or protocol-violating ring frame."""


@dataclass(frozen=True)
class RingLink:
    """Declared cost model of one leader→follower replication link.

    ``latency_ns`` is one-way propagation delay; ``bandwidth_bps`` is
    bytes per virtual second (serialisation delay is
    ``frame_bytes / bandwidth``); ``window`` bounds unacknowledged
    frames in flight; ``demote_timeout_ns`` is how much cumulative
    partition-induced delay the pair tolerates before the follower is
    demoted (rejoin happens via resync on the next fork).
    ``retransmit_ns`` is the recovery delay one dropped frame costs.
    """

    latency_ns: int = 500_000
    bandwidth_bps: int = 1_000_000_000
    window: int = 8
    demote_timeout_ns: int = 250_000_000
    retransmit_ns: int = 40_000_000

    def problems(self) -> List[str]:
        """Validation problems with the link budget (empty = usable)."""
        problems: List[str] = []
        if self.latency_ns < 0:
            problems.append(f"link latency must be >= 0 ns, "
                            f"got {self.latency_ns}")
        if self.bandwidth_bps < 1:
            problems.append(f"link bandwidth must be >= 1 byte/s, "
                            f"got {self.bandwidth_bps}")
        if self.window < 1:
            problems.append(f"link window must allow at least one frame "
                            f"in flight, got {self.window}")
        if self.demote_timeout_ns < 1:
            problems.append(f"partition demote timeout must be >= 1 ns, "
                            f"got {self.demote_timeout_ns}")
        if self.retransmit_ns < 0:
            problems.append(f"retransmit delay must be >= 0 ns, "
                            f"got {self.retransmit_ns}")
        return problems

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready form for fleet reports (sorted, deterministic)."""
        return {"latency_ns": self.latency_ns,
                "bandwidth_bps": self.bandwidth_bps,
                "window": self.window,
                "demote_timeout_ns": self.demote_timeout_ns,
                "retransmit_ns": self.retransmit_ns}


def transit_ns(link: RingLink, n_bytes: int) -> int:
    """Virtual transit time of ``n_bytes`` over ``link``.

    Propagation plus serialisation, rounded up to whole nanoseconds so
    a non-empty frame over a finite link always costs at least the
    propagation delay.
    """
    serialise = -(-n_bytes * 1_000_000_000 // link.bandwidth_bps)
    return link.latency_ns + serialise


# ---------------------------------------------------------------------------
# Frame encode/decode
# ---------------------------------------------------------------------------
#
# A frame body is the canonical JSON (``repro.replay.stream.canonical``)
# of ``{"schema", "seq", "records": [...]}``, each record as
# ``serialize_record`` lays it out.  The encoder writes those bytes
# directly — key order is fixed, so a record is a template — and hands
# ``canonical`` only what is rare (``aux``, control events, results
# that are not ints, tuples or bytes).  ``tests/test_distring.py`` holds
# it to the dict-and-dumps formulation byte for byte.

#: ``"…"`` with everything outside printable ASCII escaped — the
#: function ``canonical`` itself renders strings with.  A frame is
#: therefore ASCII, and its byte length is its ``len``.
_quote = json.encoder.encode_basestring_ascii
#: ``,"sys":"read"}`` per syscall: ``sys`` sorts last of a record's keys
#: (``aux``, ``data``, ``fd``, ``result``, ``sys``).
_SYS_TAIL = {sys.value: f',"sys":{_quote(sys.value)}}}' for sys in Sys}
_SYS_BY_VALUE = {sys.value: sys for sys in Sys}
_INT_ONLY = {int}
_CONTROL_BY_VALUE = {kind.value: kind for kind in ControlKind}


def _result_json(result: Any) -> str:
    """A record's result: a tuple tagged ``{"t": [...]}``, bytes tagged
    ``{"b": latin-1}``, anything else as itself."""
    if type(result) is int:
        return str(result)
    if isinstance(result, (list, tuple)):
        # An epoll_wait's ready set — ints only — needs no recursion.
        items = map(str if set(map(type, result)) == _INT_ONLY
                    else _result_json, result)
        return '{"t":[' + ",".join(items) + "]}"
    if isinstance(result, bytes):
        return '{"b":' + _quote(result.decode("latin-1")) + "}"
    return canonical(result)


def _control_json(event: ControlEvent) -> str:
    entry: Dict[str, Any] = {"ctl": event.kind.value}
    if event.at is not None:
        entry["at"] = event.at
    if event.version is not None:
        entry["version"] = event.version
    return canonical(entry)


def encode_frame(sequence: int, payloads: Sequence[Payload]) -> str:
    """One ``repro-ring/1`` frame: a length-prefixed JSON line.

    ``sequence`` is the frame's position in the stream (0-based,
    monotonic); the receiver uses it to detect gaps and to reassemble
    out-of-order delivery.
    """
    if type(sequence) is not int or sequence < 0:
        raise WireError(f"frame sequence must be an integer >= 0, "
                        f"got {sequence!r}")
    if not payloads:
        raise WireError("refusing to encode an empty frame")
    entries = []
    for payload in payloads:
        if type(payload) is ControlEvent:
            entries.append(_control_json(payload))
            continue
        name, fd, data, result, aux = payload
        text = f'{{"data":{_quote(data.decode("latin-1"))},"fd":' if data \
            else '{"fd":'
        if aux:
            text = '{"aux":' + canonical({str(k): v for k, v
                                          in aux.items()}) + "," + text[1:]
        text += str(fd) if type(fd) is int else canonical(fd)
        if type(result) is int:
            text += f',"result":{result}'
        elif result is not None:
            text += ',"result":' + _result_json(result)
        entries.append(text + _SYS_TAIL[name._value_])
    body = (f'{{"records":[{",".join(entries)}],'
            f'"schema":"{RING_WIRE_SCHEMA}","seq":{sequence}}}')
    return f"{len(body):08x} {body}"


def _frame_body(line: str, what: str) -> Dict[str, Any]:
    """The JSON object a well-framed ``repro-ring/1`` line carries."""
    try:
        body = unframe_line(line, 0)
    except SimulationError as exc:
        raise WireError(str(exc)) from exc
    if body.get("schema") != RING_WIRE_SCHEMA:
        raise WireError(f"{what} schema is {body.get('schema')!r}, "
                        f"expected {RING_WIRE_SCHEMA!r}")
    return body


def _sequence(body: Dict[str, Any], key: str, what: str) -> int:
    sequence = body.get(key)
    if type(sequence) is not int or sequence < 0:
        raise WireError(f"{what} sequence {sequence!r} is not a "
                        f"non-negative integer")
    return sequence


def _untagged(result: Any) -> Any:
    """Inverse of :func:`_result_json`'s tagging."""
    if type(result) is dict:
        if "t" in result:
            items = result["t"]
            if type(items) is not list:
                raise WireError(f"tuple result carries {items!r}, "
                                f"not a list")
            if dict in map(type, items):
                return tuple(map(_untagged, items))
            return tuple(items)
        if "b" in result:
            text = result["b"]
            if type(text) is not str:
                raise WireError(f"bytes result carries {text!r}, "
                                f"not a string")
            return text.encode("latin-1")
    return result


def _control_event(entry: Dict[str, Any]) -> ControlEvent:
    ctl, at, version = entry["ctl"], entry.get("at"), entry.get("version")
    kind = _CONTROL_BY_VALUE.get(ctl) if type(ctl) is str else None
    if kind is None:
        raise WireError(f"unknown control kind {ctl!r}")
    if (at is not None and type(at) is not int) \
            or (version is not None and type(version) is not str):
        raise WireError(f"bad control event on the wire: {entry!r}")
    return ControlEvent(kind, at, version)


def decode_frame(line: str) -> Tuple[int, List[Payload]]:
    """Parse one frame; returns ``(sequence, payloads)``.

    Raises :class:`WireError` on truncation, garbage, a wrong schema,
    or a malformed body — an entry that is no object, a field of the
    wrong JSON type, payload text outside latin-1 — so the receiver
    treats any of those as a partition event, never as data.  Fields
    the encoder omits come back as the record's defaults (``aux`` as
    ``EMPTY_AUX``), tagged results as tuples and bytes.
    """
    body = _frame_body(line, "frame")
    sequence = _sequence(body, "seq", "frame")
    records = body.get("records")
    if type(records) is not list or not records:
        raise WireError("frame carries no records")
    payloads: List[Payload] = []
    append, new, names = payloads.append, tuple.__new__, _SYS_BY_VALUE.get
    try:
        for entry in records:
            if type(entry) is not dict:
                raise WireError(f"frame payload entry is not an object: "
                                f"{entry!r}")
            if "ctl" in entry:
                append(_control_event(entry))
                continue
            name = names(entry.get("sys"))
            fd = entry.get("fd", -1)
            data = entry.get("data", "")
            result = entry.get("result")
            aux = entry.get("aux", EMPTY_AUX)
            if name is None or type(fd) is not int or type(data) is not str \
                    or (aux is not EMPTY_AUX and type(aux) is not dict):
                raise WireError(f"bad syscall record on the wire: "
                                f"{entry!r}")
            if type(result) is dict:
                result = _untagged(result)
            append(new(SyscallRecord, (name, fd, data.encode("latin-1"),
                                       result, aux)))
    except (TypeError, UnicodeEncodeError, RecursionError) as exc:
        # An unhashable "sys", text outside latin-1, a result nested
        # deeper than the interpreter follows.
        raise WireError(f"bad syscall record on the wire: {exc}") from None
    return sequence, payloads


def encode_ack(sequence: int) -> str:
    """The receiver's acknowledgement for frame ``sequence``."""
    return frame_line({"schema": RING_WIRE_SCHEMA, "ack": sequence})


def decode_ack(line: str) -> int:
    """Parse one ack; returns the acknowledged sequence number."""
    return _sequence(_frame_body(line, "ack"), "ack", "ack")
