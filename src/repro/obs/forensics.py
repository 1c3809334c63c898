"""Divergence forensics: what the monitor saw, as plain data.

When a follower diverges, the interesting state is gone by the time an
operator looks: the ring entries were consumed and the follower was
terminated.  :func:`build_divergence_bundle` captures all of it at the
moment of the :class:`~repro.errors.DivergenceError`, as the JSON-ready
dict the error carries as ``.forensics``:

* the last :data:`FORENSICS_LAST_K` ring records the follower consumed
  (its lane keeps them itself, so an installed observer changes
  nothing), and everything still pending on the lane's ring,
* the rules fired rewriting the diverging iteration (the iteration is
  rewritten whole before the follower replays it, so no record waits
  in the engine),
* both versions' pending syscalls — the expected stream derived from
  the leader and everything the follower actually issued,
* the diverging record pair itself, virtual-timestamped and
  version-attributed.

Every record in it is laid out by :func:`repro.obs.trace.
serialize_record`, as a ``stream.record`` and a ring frame hold it, so
:func:`repro.net.ring_wire.decode_records` gives each back field for
field; a ring entry adds its ``produced_at`` and ``sequence``.  A
bundle still cannot be replayed on its own: it keeps only the last
:data:`FORENSICS_LAST_K` ring records, and re-driving them needs the
follower's heap as it was when the first of them was consumed, which
no bundle holds.  To re-drive a divergence, record the run (``chaos
--record``, ``trace --record``) and ``repro replay`` the recording
(:mod:`repro.replay`), which rebuilds that heap from process start.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.obs.trace import serialize_record
from repro.report import canonical

#: Consumed ring records a bundle keeps (its ``ring_last_k``).
FORENSICS_LAST_K = 32


def build_divergence_bundle(*, at: int, version: str, leader_version: str,
                            error: Any,
                            ring_history: Iterable[Any] = (),
                            ring_pending: Iterable[Any] = (),
                            expected_records: Iterable[Any] = (),
                            issued_records: Iterable[Any] = (),
                            rules_fired: Iterable[str] = ()
                            ) -> Dict[str, Any]:
    """The bundle of one divergence, from the MVE runtime's state there.

    ``error`` is the :class:`~repro.errors.DivergenceError`; its
    ``expected``/``actual`` attributes name the diverging records (None:
    an extra syscall, or a follower that fell short).
    """
    expected = getattr(error, "expected", None)
    actual = getattr(error, "actual", None)
    # A ring entry is its payload's record plus when and where it was
    # produced.
    ring_last_k, pending = (
        [{**serialize_record(payload), "produced_at": produced_at,
          "sequence": sequence}
         for payload, produced_at, sequence in entries]
        for entries in (list(ring_history)[-FORENSICS_LAST_K:],
                        ring_pending))
    return {
        "at": at,
        "version": version,
        "leader_version": leader_version,
        "reason": str(error),
        "diverging": {
            "expected": None if expected is None
            else serialize_record(expected),
            "actual": None if actual is None else serialize_record(actual),
        },
        "ring_last_k": ring_last_k,
        "ring_pending": pending,
        "rules_fired": list(rules_fired),
        "expected_records": [serialize_record(r) for r in expected_records],
        "issued_records": [serialize_record(r) for r in issued_records],
    }


def summary(bundle: Dict[str, Any]) -> str:
    """A few operator-facing lines naming the diverging records, each
    as its one-line canonical JSON."""
    diverging = bundle["diverging"]
    return (
        f"divergence at t={bundle['at']}ns on {bundle['version']} "
        f"(leader {bundle['leader_version']})\n"
        f"  expected: {canonical(diverging['expected'])}\n"
        f"  issued:   {canonical(diverging['actual'])}\n"
        f"  ring: last {len(bundle['ring_last_k'])} records kept, "
        f"{len(bundle['ring_pending'])} still pending; "
        f"rules fired: {bundle['rules_fired'] or 'none'}"
    )
