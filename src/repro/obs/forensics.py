"""Divergence forensics: replayable bundles of what the monitor saw.

When a follower diverges, the interesting state is gone by the time an
operator looks: the ring entries were consumed, the rule-engine window
was flushed, and the follower was terminated.  A
:class:`ForensicsBundle` captures all of it at the moment of the
:class:`~repro.errors.DivergenceError`:

* the last :data:`FORENSICS_LAST_K` ring records the follower consumed
  (its lane keeps them itself, so an installed observer changes
  nothing),
* the rewrite-rule engine's state (window depth, rules fired),
* both versions' pending syscalls — the expected stream derived from
  the leader and everything the follower actually issued,
* the diverging record pair itself, virtual-timestamped and
  version-attributed.

The ``expected`` + ``issued`` record lists make the bundle *replayable*:
feeding ``expected`` back through a REPLAY gateway reproduces the same
divergence without re-running the workload.

Like the rest of ``repro.obs``, this module imports nothing from the
simulation layers; records and ring entries are serialized by duck
typing (``describe()``, ``payload``, ``produced_at``, ``sequence``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Consumed ring records a bundle keeps (its ``ring_last_k``).
FORENSICS_LAST_K = 32


def describe_payload(payload: Any) -> str:
    """Human-readable form of a record or control event."""
    describe = getattr(payload, "describe", None)
    if describe is not None:
        return describe()
    return repr(payload)


def serialize_record(record: Any) -> Dict[str, Any]:
    """One syscall record (or control event) as JSON-ready data."""
    entry: Dict[str, Any] = {"describe": describe_payload(record)}
    name = getattr(record, "name", None)
    if name is not None:
        entry["name"] = getattr(name, "value", str(name))
        entry["fd"] = getattr(record, "fd", -1)
        entry["nbytes"] = len(getattr(record, "data", b""))
    return entry


def serialize_ring_entry(entry: Any) -> Dict[str, Any]:
    """One ring-buffer entry, with its produce timestamp and sequence."""
    payload = serialize_record(entry.payload)
    payload["produced_at"] = entry.produced_at
    payload["sequence"] = entry.sequence
    return payload


@dataclass
class ForensicsBundle:
    """Everything captured at one divergence."""

    #: Virtual time of the divergence.
    at: int
    #: The follower version that diverged.
    version: str
    #: The leader version it was replaying.
    leader_version: str
    #: The (annotated) divergence message.
    reason: str
    #: The record the leader's stream expected next (None: extra syscall).
    expected: Optional[Dict[str, Any]]
    #: The record the follower issued (None: follower fell short).
    actual: Optional[Dict[str, Any]]
    #: The last-K ring entries consumed before/at the divergence.
    ring_last_k: List[Dict[str, Any]] = field(default_factory=list)
    #: Ring entries still unconsumed when the follower was terminated.
    ring_pending: List[Dict[str, Any]] = field(default_factory=list)
    #: Rule-engine state for the diverging iteration.
    rule_window: int = 0
    rules_fired: List[str] = field(default_factory=list)
    #: The full expected stream of the diverging iteration (leader
    #: records after rewrite rules) — the replayable input.
    expected_records: List[Dict[str, Any]] = field(default_factory=list)
    #: Everything the follower issued in the diverging iteration.
    issued_records: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "version": self.version,
            "leader_version": self.leader_version,
            "reason": self.reason,
            "diverging": {"expected": self.expected, "actual": self.actual},
            "ring_last_k": self.ring_last_k,
            "ring_pending": self.ring_pending,
            "rule_engine": {"window": self.rule_window,
                            "fired": list(self.rules_fired)},
            "expected_records": self.expected_records,
            "issued_records": self.issued_records,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def summary(self) -> str:
        """A few operator-facing lines naming the diverging records."""
        expected = (self.expected or {}).get("describe", "<nothing>")
        actual = (self.actual or {}).get("describe", "<nothing>")
        return (
            f"divergence at t={self.at}ns on {self.version} "
            f"(leader {self.leader_version})\n"
            f"  expected: {expected}\n"
            f"  issued:   {actual}\n"
            f"  ring: last {len(self.ring_last_k)} records kept, "
            f"{len(self.ring_pending)} still pending; "
            f"rules fired: {self.rules_fired or 'none'}"
        )


def build_divergence_bundle(*, at: int, version: str, leader_version: str,
                            error: Any,
                            ring_history: Iterable[Any] = (),
                            ring_pending: Iterable[Any] = (),
                            expected_records: Iterable[Any] = (),
                            issued_records: Iterable[Any] = (),
                            rule_window: int = 0,
                            rules_fired: Iterable[str] = ()
                            ) -> ForensicsBundle:
    """Assemble a bundle from the MVE runtime's state at the divergence.

    ``error`` is the :class:`~repro.errors.DivergenceError`; its
    ``expected``/``actual`` attributes name the diverging records.
    """
    expected = getattr(error, "expected", None)
    actual = getattr(error, "actual", None)
    history = list(ring_history)[-FORENSICS_LAST_K:]
    return ForensicsBundle(
        at=at,
        version=version,
        leader_version=leader_version,
        reason=str(error),
        expected=serialize_record(expected) if expected is not None else None,
        actual=serialize_record(actual) if actual is not None else None,
        ring_last_k=[serialize_ring_entry(entry) for entry in history],
        ring_pending=[serialize_ring_entry(entry) for entry in ring_pending],
        rule_window=rule_window,
        rules_fired=list(rules_fired),
        expected_records=[serialize_record(r) for r in expected_records],
        issued_records=[serialize_record(r) for r in issued_records],
    )
