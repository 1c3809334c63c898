"""TTST-style state-transfer validation (paper §7, Giuffrida et al.).

TTST validates an update by running the *forward* state transformer,
then a *backward* transformer, and comparing the result against the
original state.  A mismatch cancels the update.

The paper's claim, reproduced by the detection-matrix benchmark: TTST
catches transformer bugs that break the round trip, but misses

* transformer bugs where forward and backward are wrong *consistently*
  (the round trip is clean but the forward state is broken);
* bugs in the new code itself (not a state-transfer problem at all);
* errors that manifest only after update time.

Mvedsua catches all of these, because it validates *behaviour against
live traffic* rather than the transform in isolation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

from repro.dsu.transform import StateTransformer, clone_heap


class TTSTVerdict(enum.Enum):
    """Outcome of a TTST validation run."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass
class TTSTReport:
    """Why TTST accepted or rejected an update."""

    verdict: TTSTVerdict
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict is TTSTVerdict.ACCEPTED


class TTSTValidator:
    """Forward-then-backward round-trip validation."""

    def __init__(self, forward: StateTransformer,
                 backward: StateTransformer) -> None:
        self.forward = forward
        self.backward = backward

    def validate(self, heap: Dict[str, Any]) -> TTSTReport:
        """Run Old -> New -> Reversed and compare Reversed to Old."""
        original = clone_heap(heap)
        try:
            new_heap = self.forward(clone_heap(heap))
        except Exception as exc:
            return TTSTReport(TTSTVerdict.REJECTED,
                              f"forward transformer raised: {exc!r}")
        try:
            reversed_heap = self.backward(clone_heap(new_heap))
        except Exception as exc:
            return TTSTReport(TTSTVerdict.REJECTED,
                              f"backward transformer raised: {exc!r}")
        if reversed_heap != original:
            return TTSTReport(TTSTVerdict.REJECTED,
                              "round-trip state mismatch")
        return TTSTReport(TTSTVerdict.ACCEPTED)
