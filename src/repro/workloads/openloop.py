"""The open-loop workload engine: the ``LoadSpec`` DSL + generator.

Every load source the repo had before this module was *closed-loop*:
N lock-step connections that issue the next request only when the
previous one completes.  A closed-loop client slows down whenever the
server pauses — it politely waits through a DSU pause and then reports
a healthy latency for the request it *didn't* send (the classic
coordinated-omission artefact).  The paper's pause-masking claim is
only testable under *open-loop* load, where arrivals keep coming at
the offered rate and every request that lands on a pause eats the full
queueing delay.

:class:`LoadSpec` is the declarative description — population size,
physical connections, arrival process, key popularity, read/write mix,
session churn — validated by :meth:`LoadSpec.problems` (shared with
mvelint's MVE10xx workload lint via :func:`spec_problems`).

:class:`OpenLoopGenerator` turns a spec + seed into a deterministic
stream of :class:`OpenRequest` events in send-time order.  Four
independent ``repro.sim.rng`` streams (arrivals, keys, mix, churn)
mean the arrival skeleton is identical across cells that vary only in
how they *serve* the traffic — which is exactly what "the same upgrade
wave under open vs closed loop" needs.  The chaos site
``openloop.arrival`` hooks the stream: ``drop`` swallows one arrival,
``burst`` multiplies one arrival into a same-instant burst.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.sim.rng import RngStreams
from repro.sites import OBS
from repro.workloads.arrivals import arrival_problems, build_arrivals
from repro.workloads.keyspace import build_keys, key_problems
from repro.workloads.pool import FlyweightPool

#: Wire protocols :func:`format_request` can emit.
PROTOCOLS = ("kvstore", "redis", "memcached")


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop workload, declaratively.

    ``population`` is *logical* clients — millions are fine, the
    flyweight pool never materialises them.  ``connections`` bounds the
    physical slots sessions multiplex over.  ``arrival`` and ``keys``
    are the DSL mappings :mod:`repro.workloads.arrivals` and
    :mod:`repro.workloads.keyspace` define.
    """

    name: str = "default"
    population: int = 1_000_000
    connections: int = 16
    arrival: Dict[str, Any] = field(default_factory=lambda: {
        "process": "poisson", "rate_per_sec": 4000.0})
    keys: Dict[str, Any] = field(default_factory=lambda: {
        "distribution": "zipf", "keyspace": 100_000, "exponent": 1.1})
    read_fraction: float = 0.9
    value_size: int = 16
    #: Mean requests per session before the logical client churns.
    session_requests: int = 50
    #: Slot downtime between one session's end and the next's start.
    reconnect_ns: int = 1_000_000
    #: Total arrivals the generator offers.
    requests: int = 2400

    def problems(self) -> List[str]:
        """Human-readable validation problems (empty = usable)."""
        return [message for _, message in spec_problems(self)]

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "population": self.population,
                "connections": self.connections,
                "arrival": dict(self.arrival), "keys": dict(self.keys),
                "read_fraction": self.read_fraction,
                "value_size": self.value_size,
                "session_requests": self.session_requests,
                "reconnect_ns": self.reconnect_ns,
                "requests": self.requests}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoadSpec":
        known = {f: payload[f] for f in (
            "name", "population", "connections", "arrival", "keys",
            "read_fraction", "value_size", "session_requests",
            "reconnect_ns", "requests") if f in payload}
        return cls(**known)


def spec_problems(spec: LoadSpec) -> List[Tuple[str, str]]:
    """``(category, message)`` validation problems for one spec.

    Categories map 1:1 onto the MVE10xx lint codes (see
    :mod:`repro.analysis.specs`); the runtime joins the
    messages, the lint keeps the categories.
    """
    problems: List[Tuple[str, str]] = []
    for message in arrival_problems(spec.arrival):
        category = ("arrival-rate" if "rate" in message
                    or "dwell" in message else "arrival-process")
        problems.append((category, message))
    for message in key_problems(spec.keys):
        category = ("zipf-exponent" if "exponent" in message
                    else "key-distribution")
        problems.append((category, message))
    if not isinstance(spec.population, int) or spec.population < 1:
        problems.append(("shape", f"population is {spec.population!r}, "
                                  f"expected a positive int"))
    if not isinstance(spec.connections, int) or spec.connections < 1:
        problems.append(("shape", f"connections is "
                                  f"{spec.connections!r}, expected a "
                                  f"positive int"))
    elif isinstance(spec.population, int) \
            and spec.connections > spec.population:
        problems.append((
            "churn", f"{spec.connections} concurrent connections exceed "
                     f"the logical population of {spec.population} — "
                     f"churn can never rotate every slot onto a "
                     f"distinct client"))
    if not isinstance(spec.read_fraction, (int, float)) \
            or not 0.0 <= spec.read_fraction <= 1.0:
        problems.append(("shape", f"read_fraction is "
                                  f"{spec.read_fraction!r}, expected a "
                                  f"number in [0, 1]"))
    for key in ("session_requests", "reconnect_ns", "requests",
                "value_size"):
        value = getattr(spec, key)
        if not isinstance(value, int) or value < 1:
            problems.append(("shape", f"{key} is {value!r}, expected a "
                                      f"positive int"))
    return problems


@dataclass(frozen=True)
class OpenRequest:
    """One generated request, ready to send at ``at_ns``."""

    at_ns: int
    slot: int
    client: int
    is_read: bool
    key: int
    seq: int


class OpenLoopGenerator:
    """Deterministic open-loop event stream for one spec + seed.

    ``stream`` namespaces the rng streams so two generators with the
    same seed but different stream names are independent, while two
    cells sharing a stream name see the *identical* arrival skeleton.
    """

    def __init__(self, spec: LoadSpec, seed: int, *,
                 stream: str = "openloop") -> None:
        problems = spec.problems()
        if problems:
            raise ValueError(f"unusable load spec {spec.name!r}: "
                             + "; ".join(problems))
        self.spec = spec
        streams = RngStreams(seed)
        self._arrival_rng = streams.stream(f"{stream}.arrivals")
        self._key_rng = streams.stream(f"{stream}.keys")
        self._mix_rng = streams.stream(f"{stream}.mix")
        self._churn_rng = streams.stream(f"{stream}.churn")
        self._arrivals = build_arrivals(spec.arrival)
        self._keys = build_keys(spec.keys)
        self.pool = FlyweightPool(
            spec.population, spec.connections, self._churn_rng,
            session_requests=spec.session_requests,
            reconnect_ns=spec.reconnect_ns)
        self.offered = 0
        self.dropped = 0
        self.bursts = 0

    def events(self, start_ns: int = 0) -> Iterator[OpenRequest]:
        """Yield requests in non-decreasing send-time order.

        Deferred sends (every slot mid-reconnect) can finish *after* a
        later arrival's send, so emission goes through a small reorder
        heap: a pending send is safe to emit once the arrival clock has
        caught up with it, because no future send can precede its own
        arrival time.
        """
        spec = self.spec
        chaos = OBS.chaos
        pending: List[Tuple[int, int, OpenRequest]] = []
        seq = 0
        for at_ns in self._arrivals.times(self._arrival_rng,
                                          spec.requests, start_ns):
            self.offered += 1
            copies = 1
            if chaos is not None:
                fault = chaos.fire("openloop.arrival", when=at_ns,
                                   seq=seq)
                if fault is not None:
                    if fault.kind == "drop":
                        self.dropped += 1
                        continue
                    # "burst": one arrival becomes a same-instant volley.
                    extra = int(fault.param.get("extra", 3))
                    self.offered += extra
                    self.bursts += 1
                    copies = 1 + extra
            for _ in range(copies):
                send_ns, slot, client = self.pool.assign(at_ns)
                request = OpenRequest(
                    send_ns, slot, client,
                    self._mix_rng.random() < spec.read_fraction,
                    self._keys.sample(self._key_rng), seq)
                heapq.heappush(pending, (send_ns, seq, request))
                seq += 1
            while pending and pending[0][0] <= at_ns:
                yield heapq.heappop(pending)[2]
        while pending:
            yield heapq.heappop(pending)[2]


def format_request(request: OpenRequest, protocol: str,
                   value: str) -> bytes:
    """The wire bytes for one generated request."""
    key = f"ol-{request.key}"
    if protocol == "kvstore":
        if request.is_read:
            return f"GET {key}\r\n".encode()
        return f"PUT {key} {value}\r\n".encode()
    if protocol == "redis":
        if request.is_read:
            return f"GET {key}\r\n".encode()
        return f"SET {key} {value}\r\n".encode()
    if protocol == "memcached":
        if request.is_read:
            return f"get {key}\r\n".encode()
        return f"set {key} 0 0 {len(value)}\r\n{value}\r\n".encode()
    raise ValueError(f"unknown protocol {protocol!r} "
                     f"(known: {', '.join(PROTOCOLS)})")
