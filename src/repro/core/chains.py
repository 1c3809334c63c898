"""Chained updates: walking a release history one Mvedsua update at a time.

The paper evaluates *individual* update pairs; a real deployment applies
them in sequence (Vsftpd 1.1.0 all the way to 2.0.6).  This helper walks
an app's catalog entry (:class:`repro.apps.AppConfig`: release order,
versions, rules) release by release through the full fork / validate /
promote / finalize lifecycle, stopping — with the old version still
serving — at the first failed or rolled-back step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.mvedsua import Mvedsua, UpdateAttempt
from repro.core.stages import Stage
from repro.sim.engine import SECOND

if TYPE_CHECKING:  # repro.apps imports this package
    from repro.apps import AppConfig


@dataclass
class ChainStep:
    """Outcome of one hop in the chain."""

    old: str
    new: str
    attempt: UpdateAttempt
    completed: bool
    detail: str = ""


@dataclass
class ChainResult:
    """Outcome of the whole walk."""

    steps: List[ChainStep] = field(default_factory=list)
    final_version: str = ""

    @property
    def completed(self) -> bool:
        return bool(self.steps) and all(step.completed
                                        for step in self.steps)


def upgrade_chain(mvedsua: Mvedsua, config: "AppConfig", *,
                  start_at: int,
                  validate: Optional[Callable[[Mvedsua, int], None]] = None,
                  step_ns: int = 4 * SECOND,
                  target: Optional[str] = None) -> ChainResult:
    """Update through every release after the current one.

    ``validate(mvedsua, now)`` runs between catch-up and promotion —
    typically client traffic that exercises the pair's behavioural
    deltas.  The chain stops early if a step fails or is rolled back by
    a divergence during validation.
    """
    result = ChainResult()
    now = start_at
    while True:
        current = mvedsua.current_version
        if target is not None and current == target:
            break
        successor = config.versions.successor(config.name, current)
        if successor is None:
            break
        attempt = mvedsua.request_update(
            config.version(successor), now,
            rules=config.rules_for(current, successor))
        if not attempt.ok:
            result.steps.append(ChainStep(current, successor, attempt,
                                          completed=False,
                                          detail=attempt.reason))
            break
        if validate is not None:
            validate(mvedsua, now + SECOND)
        if mvedsua.stage is not Stage.OUTDATED_LEADER:
            result.steps.append(ChainStep(
                current, successor, attempt, completed=False,
                detail="rolled back during validation"))
            break
        mvedsua.promote(now + 2 * SECOND)
        mvedsua.finalize(now + 3 * SECOND)
        result.steps.append(ChainStep(current, successor, attempt,
                                      completed=True))
        now += step_ns
    result.final_version = mvedsua.current_version
    return result
