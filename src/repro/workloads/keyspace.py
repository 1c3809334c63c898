"""Keys and requests shared by every workload generator.

Both the closed-loop Memtier generator and the open-loop engine need to
pick keys from a bounded keyspace; this module gives them one shared,
seed-deterministic vocabulary:

* :class:`UniformKeys` — every key equally likely.  Its :meth:`sample`
  takes the words ``rng.randrange(keyspace)`` would take, drawn inline
  as :meth:`~repro.workloads.memtier.MemtierSpec.commands` draws them
  (pinned by ``tests/test_workloads.py::TestInlineDraw``).
* :class:`ZipfKeys` — rank ``r`` (0-based) drawn with probability
  proportional to ``1 / (r + 1) ** exponent``.  Real cache traffic is
  heavy-headed; an open-loop engine that sprayed keys uniformly would
  overstate the store's working set and understate contention on the hot
  keys.

``build_keys`` constructs either from the ``LoadSpec`` DSL's ``keys``
mapping, and ``key_problems`` validates that mapping without building
anything — the MVE10xx workload lint and the runtime share it.
``request_templates`` is the one request formatter (``template % key``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Any, List, Mapping, Tuple

#: Each wire protocol's read and write request on key ``{key}``.
_REQUESTS = {
    "kvstore": ("GET {key}\r\n", "PUT {key} {value}\r\n"),
    "redis": ("GET {key}\r\n", "SET {key} {value}\r\n"),
    "memcached": ("get {key}\r\n", "set {key} 0 0 {size}\r\n{value}\r\n"),
}

#: The closed distribution vocabulary (MVE1001 checks against this).
KEY_DISTRIBUTIONS = ("uniform", "zipf")

#: Zipf exponents outside this range are either effectively uniform
#: (<= 0) or degenerate single-key traffic (> 4); MVE1003 flags both.
ZIPF_EXPONENT_MIN = 0.0
ZIPF_EXPONENT_MAX = 4.0


class UniformKeys:
    """Uniform key popularity over ``keyspace`` distinct keys."""

    __slots__ = ("keyspace", "bits")

    def __init__(self, keyspace: int) -> None:
        if keyspace < 1:
            raise ValueError(f"keyspace is {keyspace}, expected at least 1")
        self.keyspace, self.bits = keyspace, keyspace.bit_length()

    def sample(self, rng) -> int:
        """One key index, in the words ``randrange(keyspace)`` takes."""
        key = rng.getrandbits(self.bits)
        while key >= self.keyspace:
            key = rng.getrandbits(self.bits)
        return key

    def as_dict(self) -> Mapping[str, Any]:
        return {"distribution": "uniform", "keyspace": self.keyspace}


@functools.lru_cache(maxsize=4)
def _zipf_cdf(keyspace: int, exponent: float) -> Tuple[float, ...]:
    """Running sums of the rank weights, kept for the last few
    distributions: every cell of a scenario samples the same one."""
    return tuple(itertools.accumulate(
        1.0 / float(rank + 1) ** exponent for rank in range(keyspace)))


class ZipfKeys:
    """Zipfian key popularity: rank r with weight ``1/(r+1)**exponent``.

    Rank 0 is the hottest key.  The CDF is precomputed once (O(keyspace)
    floats); each sample is one ``rng.random()`` and one binary search,
    so the sampler itself is O(log keyspace) with no per-key objects.
    """

    __slots__ = ("keyspace", "exponent", "_cdf")

    def __init__(self, keyspace: int, exponent: float = 1.1) -> None:
        self.keyspace = keyspace
        self.exponent = exponent
        self._cdf = _zipf_cdf(keyspace, exponent)

    def sample(self, rng) -> int:
        """One key rank; consumes exactly one ``random`` draw."""
        point = rng.random() * self._cdf[-1]
        return bisect.bisect_left(self._cdf, point)

    def as_dict(self) -> Mapping[str, Any]:
        return {"distribution": "zipf", "keyspace": self.keyspace,
                "exponent": self.exponent}


def key_problems(payload: Mapping[str, Any]) -> List[str]:
    """Validation problems with a ``keys`` DSL mapping (empty = OK)."""
    problems: List[str] = []
    if not isinstance(payload, Mapping):
        return [f"keys is {payload!r}, expected a mapping"]
    distribution = payload.get("distribution")
    if distribution not in KEY_DISTRIBUTIONS:
        problems.append(
            f"unknown key distribution {distribution!r} "
            f"(known: {', '.join(KEY_DISTRIBUTIONS)})")
    keyspace = payload.get("keyspace")
    if not isinstance(keyspace, int) or keyspace < 1:
        problems.append(f"keyspace is {keyspace!r}, expected a "
                        f"positive int")
    if distribution == "zipf":
        exponent = payload.get("exponent")
        if not isinstance(exponent, (int, float)) \
                or not ZIPF_EXPONENT_MIN < exponent <= ZIPF_EXPONENT_MAX:
            problems.append(
                f"zipf exponent is {exponent!r}, expected a number in "
                f"({ZIPF_EXPONENT_MIN}, {ZIPF_EXPONENT_MAX}]")
    return problems


def build_keys(payload: Mapping[str, Any]):
    """Build the sampler a ``keys`` DSL mapping describes."""
    problems = key_problems(payload)
    if problems:
        raise ValueError("unusable key distribution: "
                         + "; ".join(problems))
    if payload["distribution"] == "uniform":
        return UniformKeys(payload["keyspace"])
    return ZipfKeys(payload["keyspace"], payload.get("exponent", 1.1))


def request_templates(protocol: str, prefix: str,
                      value: str) -> Tuple[bytes, ...]:
    """``(read, write)`` bytes templates of ``protocol``'s GET and SET
    of key ``prefix<n>``: ``template % n`` is one request's bytes."""
    forms = _REQUESTS.get(protocol)
    if forms is None:
        raise ValueError(f"unknown protocol {protocol!r} "
                         f"(known: {', '.join(_REQUESTS)})")
    fields = {"key": prefix.replace("%", "%%") + "%d",
              "value": value.replace("%", "%%"), "size": len(value)}
    return tuple(form.format(**fields).encode() for form in forms)
