"""A catalog whose only defects are broken open-loop workload specs.

Loaded two ways: imported by the test suite, and passed to the CLI via
``python -m repro lint --catalog tests/fixtures/bad_workloads.py``.

The single app ``badload`` registers one version (so every other
analyzer is vacuously clean) and five workload-spec factories, one per
MVE10xx code:

* ``typo-arrival``   — unknown arrival process        → MVE1001
* ``zero-rate``      — non-positive arrival rate      → MVE1002
* ``wild-zipf``      — Zipf exponent out of (0, 4]    → MVE1003
* ``over-churned``   — connections > population       → MVE1004
* ``negative-shape`` — non-positive request count     → MVE1005
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.apps import AppConfig
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.mve.dsl import RuleSet
from repro.workloads.openloop import LoadSpec

APP = "badload"


class BadLoadVersion(ServerVersion):
    """A one-command echo server; the app exists only to host specs."""

    app = APP
    name = "1"

    def initial_heap(self) -> Dict[str, Any]:
        return {"table": {}}

    def handle(self, heap: Dict[str, Any], request: bytes,
               session: Optional[Dict[str, Any]] = None,
               io: Optional[Any] = None) -> List[bytes]:
        return [b"+OK\r\n"]

    def commands(self) -> FrozenSet[str]:
        return frozenset({"PING"})

    def response_texts(self) -> FrozenSet[bytes]:
        return frozenset({b"+OK\r\n"})


def _typo_arrival() -> LoadSpec:
    return LoadSpec(name="typo-arrival",
                    arrival={"process": "possion", "rate_per_sec": 100.0})


def _zero_rate() -> LoadSpec:
    return LoadSpec(name="zero-rate",
                    arrival={"process": "poisson", "rate_per_sec": 0.0})


def _wild_zipf() -> LoadSpec:
    return LoadSpec(name="wild-zipf",
                    keys={"distribution": "zipf", "keyspace": 1000,
                          "exponent": 9.5})


def _over_churned() -> LoadSpec:
    return LoadSpec(name="over-churned", population=4, connections=64)


def _negative_shape() -> LoadSpec:
    return LoadSpec(name="negative-shape", requests=-1)


def catalog() -> Dict[str, AppConfig]:
    versions = VersionRegistry()
    versions.register(BadLoadVersion())
    return {APP: AppConfig(
        name=APP,
        versions=versions,
        transforms=TransformRegistry(),
        rules_for=lambda old, new: RuleSet(),
        workload_specs=(_typo_arrival, _zero_rate, _wild_zipf,
                        _over_churned, _negative_shape),
    )}
