"""Divergence detection.

A follower diverges when the syscall it is about to issue does not match
the next expected record (the leader's record stream after rewrite
rules), when it issues more syscalls than expected, or when it issues
fewer.  Divergences carry both sides so operators (and tests) can see
exactly what disagreed — mirroring Varan's divergence reports.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DivergenceError
from repro.syscalls.model import SyscallRecord


def divergence_message(reason: str, expected: Optional[SyscallRecord],
                       actual: Optional[SyscallRecord]) -> str:
    """What the MVE monitor says when leader and follower disagree."""
    expected_text = expected.describe() if expected else "<nothing>"
    actual_text = actual.describe() if actual else "<nothing>"
    return (f"divergence ({reason}): leader expected {expected_text}, "
            f"follower issued {actual_text}")


def check_match(expected: Optional[SyscallRecord],
                actual: SyscallRecord) -> None:
    """Raise :class:`DivergenceError` unless ``actual`` matches ``expected``."""
    if expected is None:
        raise DivergenceError(
            divergence_message("follower issued extra syscall", None, actual),
            expected=None, actual=actual)
    if expected.aux.get("wildcard"):
        # A rewrite rule declared this position "any syscall of this
        # kind is fine" (e.g. the reply an older version writes where a
        # newer one, told 'noreply', stays silent).
        if expected.name is actual.name:
            return
    if not expected.matches(actual):
        raise DivergenceError(
            divergence_message("syscall mismatch", expected, actual),
            expected=expected, actual=actual)


def check_drained(leftover: Optional[SyscallRecord]) -> None:
    """Raise when the follower finished while ``leftover``, the first
    expected record it never issued, remains (None: nothing remains)."""
    if leftover is not None:
        raise DivergenceError(
            divergence_message("follower issued fewer syscalls",
                               leftover, None),
            expected=leftover, actual=None)
