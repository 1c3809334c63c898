"""A deliberately broken app catalog for exercising every analyzer.

Loaded two ways: imported by the test suite, and passed to the CLI via
``python -m repro lint --catalog tests/fixtures/bad_catalog.py`` (which
loads it by file path, so this module stays import-self-contained).

The single app ``badkv`` plants one defect per analyzer:

* a shadowed rule pair               → rules lint,    MVE102 (ERROR)
* the new-only ``BOOM`` command with
  no covering rule                   → coverage,      MVE201 (ERROR)
* an entry-dropping transformer      → transform,     MVE302 (ERROR)
* release ``3`` with no transformer
  edge reaching it                   → update paths,  MVE401 + MVE403
* an untagged reply-suppressing rule → trace lint,    MVE501 (WARNING)
* a fault plan naming a nonexistent
  injection site and an illegal kind → chaos lint,    MVE601 (ERROR)
* a fleet topology whose upgrade
  wave is wider than the shard's
  replica count                      → fleet lint,    MVE701 (ERROR)
* a cross-node MVE topology with no
  declared ring-link budget         → fleet lint,    MVE704 (ERROR)
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.apps import AppConfig
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.mve.dsl import RuleSet, parse_rules

APP = "badkv"

#: ``narrow`` can never fire: every "PUT-..." request already matches
#: ``broad``, which has priority.  Both rules also reference the verb
#: ``PUT``, which no badkv version understands (MVE203).
SHADOWED_RULES_TEXT = r'''
rule broad outdated-leader:
    read(fd, s) where startswith(s, "PUT") => read(fd, "bad-cmd\r\n")
rule narrow outdated-leader:
    read(fd, s) where startswith(s, "PUT-") => read(fd, "never\r\n")
rule quiet_set outdated-leader:
    read(fd, s), write(fd2, r) where startswith(s, "SET") => read(fd, s)
'''


class BadKVVersion(ServerVersion):
    """A toy store: ``SET k v`` writes the table, ``PING`` answers."""

    app = APP

    def __init__(self, name: str, extra_commands: FrozenSet[str]) -> None:
        self.name = name
        self._extra = extra_commands

    def initial_heap(self) -> Dict[str, Any]:
        return {"table": {}, "stats": {"requests": 0}}

    def handle(self, heap: Dict[str, Any], request: bytes,
               session: Optional[Dict[str, Any]] = None,
               io: Optional[Any] = None) -> List[bytes]:
        heap["stats"]["requests"] += 1
        parts = request.split()
        if parts and parts[0] == b"SET" and len(parts) >= 3:
            heap["table"][parts[1].decode("latin-1")] = \
                parts[2].decode("latin-1")
            return [b"+OK\r\n"]
        if parts and parts[0] == b"PING":
            return [b"+PONG\r\n"]
        return [b"-ERR\r\n"]

    def commands(self) -> FrozenSet[str]:
        return frozenset({"PING", "SET"}) | self._extra

    def response_texts(self) -> FrozenSet[bytes]:
        return frozenset({b"+OK\r\n", b"+PONG\r\n", b"-ERR\r\n"})


def _drop_entries(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Migrates the heap but forgets the table's entries (MVE302)."""
    return {"table": {}, "stats": dict(heap["stats"])}


def _bad_fault_plan():
    """Names a site no hook implements and a kind illegal at a real
    site — both vacuous cells a campaign would silently mark masked."""
    from repro.chaos.plan import Fault, FaultPlan, on_call
    return FaultPlan("badkv-chaos", (
        Fault("kernel.reed", "econnreset", on_call(1)),   # typo'd site
        Fault("mve.leader", "corrupt-record", on_call(1)),  # wrong kind
    ))


def _bad_fleet_topology():
    """Two-slot upgrade waves over single-replica shards: one wave
    would drain whole shards (MVE701)."""
    from repro.cluster.shard import FleetSpec
    return FleetSpec(shards=2, replicas_per_shard=1, wave_size=2)


def _bad_distributed_topology():
    """Cross-node MVE pairs with no declared ring link: the replicated
    ring would have no latency/window budget to charge (MVE704)."""
    from repro.cluster.shard import FleetSpec
    return FleetSpec(shards=2, replicas_per_shard=2, wave_size=1,
                     cross_node_pairs=True)


def _rules_for(old: str, new: str) -> RuleSet:
    rules = RuleSet()
    if (old, new) == ("1", "2"):
        for rule in parse_rules(SHADOWED_RULES_TEXT):
            rules.add(rule)
    return rules


def catalog() -> Dict[str, AppConfig]:
    versions = VersionRegistry()
    versions.register(BadKVVersion("1", frozenset()))
    versions.register(BadKVVersion("2", frozenset({"BOOM"})))
    # Release 3 exists but no transformer reaches it: MVE401 + MVE403.
    versions.register(BadKVVersion("3", frozenset({"BOOM"})))

    transforms = TransformRegistry()
    transforms.register(APP, "1", "2", _drop_entries)

    return {APP: AppConfig(
        name=APP,
        versions=versions,
        transforms=transforms,
        rules_for=_rules_for,
        seed_requests=(b"SET alpha one", b"SET beta two"),
        fault_plans=(_bad_fault_plan,),
        fleet_topologies=(_bad_fleet_topology,
                          _bad_distributed_topology),
    )}
