"""A catalog with seeded rewrite-rule gaps for the MVE8xx prover.

Loaded two ways: imported by the test suite, and passed to the CLI via
``python -m repro prove gapkv --catalog tests/fixtures/gap_catalog.py``
(loaded by file path, so this module stays import-self-contained).

The single app ``gapkv`` updates 1 → 2 and plants one defect per
prover code:

* ``DEL`` — added in release 2, fully implemented, **no rule**: the
  prover reaches the uncovered configuration (MVE801 ERROR in the
  outdated-leader stage) and the witness replay reproduces the
  divergence → CONFIRMED with a ForensicsBundle;
* ``COUNT`` — *declared* in release 2's vocabulary but the handler
  rejects it: the abstraction says the versions diverge, the replay
  stays clean → SPURIOUS, auto-downgraded to WARNING;
* ``ZAP`` — added in release 2 with the **wrong rule**: ``zap_wrong``
  redirects the request to ``PING``, so a rule fires on the diverging
  transition yet the streams still disagree (MVE802);
* ``set_broad`` / ``set_narrow`` — the narrow rule is shadowed by the
  broad one (MVE803: fully modeled, never fires) and both fully match
  the same ``SET-`` window with different effects (MVE804).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.apps import AppConfig
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.mve.dsl import RuleSet, parse_rules

APP = "gapkv"

GAP_RULES_TEXT = r'''
rule zap_wrong outdated-leader:
    read(fd, s) where startswith(s, "ZAP") => read(fd, "PING\r\n")
rule set_broad outdated-leader:
    read(fd, s) where startswith(s, "SET") => read(fd, s)
rule set_narrow outdated-leader:
    read(fd, s) where startswith(s, "SET-") => read(fd, "GET a\r\n")
'''


class GapKVVersion(ServerVersion):
    """A toy store; release 2 adds ``DEL`` and ``ZAP`` for real and
    *claims* ``COUNT`` without implementing it."""

    app = APP

    def __init__(self, name: str) -> None:
        self.name = name

    def initial_heap(self) -> Dict[str, Any]:
        return {"table": {}, "stats": {"requests": 0}}

    def handle(self, heap: Dict[str, Any], request: bytes,
               session: Optional[Dict[str, Any]] = None,
               io: Optional[Any] = None) -> List[bytes]:
        heap["stats"]["requests"] += 1
        parts = request.split()
        verb = parts[0] if parts else b""
        if verb == b"SET" and len(parts) >= 3:
            heap["table"][parts[1].decode("latin-1")] = \
                parts[2].decode("latin-1")
            return [b"+OK\r\n"]
        if verb == b"GET" and len(parts) >= 2:
            value = heap["table"].get(parts[1].decode("latin-1"))
            if value is None:
                return [b"-ERR not found\r\n"]
            return [b"$" + value.encode("latin-1") + b"\r\n"]
        if verb == b"PING":
            return [b"+PONG\r\n"]
        if self.name == "2":
            if verb == b"DEL" and len(parts) >= 2:
                heap["table"].pop(parts[1].decode("latin-1"), None)
                return [b"+OK\r\n"]
            if verb == b"ZAP":
                heap["table"].clear()
                return [b"+ZAPPED\r\n"]
            # COUNT is declared in commands() but falls through: the
            # vocabulary model is coarser than the handler (SPURIOUS).
        return [b"-ERR unknown\r\n"]

    def commands(self) -> FrozenSet[str]:
        base = frozenset({"PING", "SET", "GET"})
        if self.name == "2":
            return base | frozenset({"DEL", "ZAP", "COUNT"})
        return base

    def response_texts(self) -> FrozenSet[bytes]:
        texts = {b"+OK\r\n", b"+PONG\r\n", b"-ERR not found\r\n",
                 b"-ERR unknown\r\n"}
        if self.name == "2":
            texts.add(b"+ZAPPED\r\n")
        return frozenset(texts)


def _identity_transform(heap: Dict[str, Any]) -> Dict[str, Any]:
    return {"table": dict(heap["table"]), "stats": dict(heap["stats"])}


def _rules_for(old: str, new: str) -> RuleSet:
    rules = RuleSet()
    if (old, new) == ("1", "2"):
        for rule in parse_rules(GAP_RULES_TEXT):
            rules.add(rule)
    return rules


def catalog() -> Dict[str, AppConfig]:
    versions = VersionRegistry()
    versions.register(GapKVVersion("1"))
    versions.register(GapKVVersion("2"))

    transforms = TransformRegistry()
    transforms.register(APP, "1", "2", _identity_transform)

    return {APP: AppConfig(
        name=APP,
        versions=versions,
        transforms=transforms,
        rules_for=_rules_for,
        seed_requests=(b"SET alpha one", b"SET beta two"),
    )}
