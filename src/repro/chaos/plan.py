"""The fault-plan DSL: what to break, where, and when.

A :class:`FaultPlan` is a named, declarative list of :class:`Fault`
entries.  Each fault names an *injection site* (a hook compiled into one
layer of the stack), a *fault kind* legal at that site, and a
:class:`Trigger` saying when the armed fault actually fires.  The
site × kind vocabulary is a closed registry (:data:`SITES`) so plans can
be validated statically — mvelint's MVE601 analyzer and the campaign
runner both call :func:`FaultPlan.validate` before any code runs.

Triggers come in four kinds, mirroring the issue's taxonomy:

``on-call``
    the N-th eligible call at the site (1-based; the deterministic
    workhorse of campaign grids);
``at-time``
    the first eligible call at or after a virtual timestamp;
``at-stage``
    the first eligible call while the Mvedsua deployment is in a given
    update stage (``single-leader`` / ``outdated-leader`` /
    ``updated-leader``);
``predicate``
    an arbitrary callable over the call context (site, call index,
    virtual time, stage, and per-site extras such as the fd).

This module imports only the standard library and :mod:`repro.sites`, so
every layer of the stack can depend on it without cycles.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sites import TABLE

#: Injection sites and the fault kinds legal at each one: the rows of
#: :data:`repro.sites.TABLE` that take faults, in table order (campaign
#: grids enumerate this).  The closed vocabulary MVE601 checks plans
#: against; ``tests/test_sites.py`` holds every site to a compiled hook.
SITES: Dict[str, Tuple[str, ...]] = {
    site.name: site.faults for site in TABLE if site.faults}

#: Legal trigger kinds (see the module docstring).
TRIGGER_KINDS = ("on-call", "at-time", "at-stage", "predicate")

#: Legal ``at-stage`` stage names (Stage enum values in core/stages.py).
STAGE_NAMES = ("single-leader", "outdated-leader", "updated-leader")


@dataclass
class Trigger:
    """When an armed fault fires.

    ``count`` bounds how many times the fault fires over a run: the
    default 1 makes campaign cells single-shot; -1 means unlimited
    (used by the E3 timing plan, which races *every* quiesce attempt).
    """

    kind: str
    call_index: int = 0
    at_ns: int = 0
    stage: str = ""
    predicate: Optional[Callable[[Dict[str, Any]], bool]] = None
    count: int = 1
    #: Human label for predicate triggers (they have no other identity
    #: in reports — the callable itself is never serialized).
    label: str = ""

    def describe(self) -> str:
        if self.kind == "on-call":
            return f"on-call:{self.call_index}"
        if self.kind == "at-time":
            return f"at-time:{self.at_ns}"
        if self.kind == "at-stage":
            return f"at-stage:{self.stage}"
        if self.label:
            return f"predicate:{self.label}"
        return "predicate"

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON form (predicates are summarized, never
        serialized — reports must be bit-identical across runs)."""
        payload: Dict[str, Any] = {"kind": self.kind, "count": self.count}
        if self.kind == "on-call":
            payload["call_index"] = self.call_index
        elif self.kind == "at-time":
            payload["at_ns"] = self.at_ns
        elif self.kind == "at-stage":
            payload["stage"] = self.stage
        elif self.kind == "predicate" and self.label:
            payload["label"] = self.label
        return payload


def on_call(call_index: int, *, count: int = 1) -> Trigger:
    """Fire on the ``call_index``-th eligible call at the site (1-based)."""
    return Trigger("on-call", call_index=call_index, count=count)


def at_time(at_ns: int, *, count: int = 1) -> Trigger:
    """Fire on the first eligible call at or after virtual time ``at_ns``."""
    return Trigger("at-time", at_ns=at_ns, count=count)


def at_stage(stage: str, *, count: int = 1) -> Trigger:
    """Fire on the first eligible call while in update stage ``stage``."""
    return Trigger("at-stage", stage=stage, count=count)


def when(predicate: Callable[[Dict[str, Any]], bool], *,
         count: int = 1, label: str = "") -> Trigger:
    """Fire whenever ``predicate(context)`` is true (up to ``count``)."""
    return Trigger("predicate", predicate=predicate, count=count,
                   label=label)


def trigger_problems(trigger: Trigger) -> List[str]:
    """Validation problems with one trigger (empty list means valid)."""
    problems: List[str] = []
    if trigger.kind not in TRIGGER_KINDS:
        problems.append(
            f"unknown trigger kind {trigger.kind!r} "
            f"(expected one of {', '.join(TRIGGER_KINDS)})")
        return problems
    if trigger.kind == "on-call" and trigger.call_index < 1:
        problems.append(
            f"on-call trigger needs call_index >= 1, got "
            f"{trigger.call_index}")
    if trigger.kind == "at-time" and trigger.at_ns < 0:
        problems.append(f"at-time trigger needs at_ns >= 0, got "
                        f"{trigger.at_ns}")
    if trigger.kind == "at-stage" and trigger.stage not in STAGE_NAMES:
        problems.append(
            f"unknown stage {trigger.stage!r} "
            f"(expected one of {', '.join(STAGE_NAMES)})")
    if trigger.kind == "predicate" and trigger.predicate is None:
        problems.append("predicate trigger carries no predicate")
    if trigger.count == 0 or trigger.count < -1:
        problems.append(f"trigger count must be >= 1 or -1 (unlimited), "
                        f"got {trigger.count}")
    return problems


@dataclass
class Fault:
    """One armed fault: kind × site × trigger (+ kind-specific params).

    ``param`` carries kind-specific knobs — e.g. ``bytes`` for
    short-read/short-write truncation, ``delay_ns`` for sim-event and
    quiescence delays, ``transformer`` for ``dsu.transform``/``replace``,
    ``factory`` for ``dsu.update``/``buggy-version``.  Callables and
    other non-JSON values are summarized, not serialized, in reports.
    """

    site: str
    kind: str
    trigger: Trigger
    param: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.site}/{self.kind}@{self.trigger.describe()}"

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "site": self.site,
            "kind": self.kind,
            "trigger": self.trigger.as_dict(),
        }
        param = _jsonable_param(self.param)
        if param:
            payload["param"] = param
        return payload


def _jsonable_param(param: Mapping[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key in sorted(param):
        value = param[key]
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, bytes):
            out[key] = value.decode("latin-1").encode("unicode_escape") \
                .decode("ascii")
        else:
            out[key] = f"<{type(value).__name__}>"
    return out


def fault_problems(fault: Fault) -> List[str]:
    """Validation problems with one fault (empty list means valid)."""
    problems: List[str] = []
    kinds = SITES.get(fault.site)
    if kinds is None:
        problems.append(
            f"unknown injection site {fault.site!r} "
            f"(known sites: {', '.join(sorted(SITES))})")
    elif fault.kind not in kinds:
        problems.append(
            f"fault kind {fault.kind!r} is not legal at site "
            f"{fault.site!r} (legal kinds: {', '.join(kinds)})")
    return problems


@dataclass
class FaultPlan:
    """A named list of faults, validated as a unit."""

    name: str
    faults: Tuple[Fault, ...] = ()

    def validate(self) -> List[str]:
        """All problems across the plan (empty list means valid).

        Site/kind problems (MVE601 territory) come before trigger
        problems (MVE602) for each fault, and faults are reported in
        plan order with their index.
        """
        problems: List[str] = []
        for index, fault in enumerate(self.faults):
            prefix = f"fault[{index}] {fault.site}/{fault.kind}: "
            for problem in fault_problems(fault):
                problems.append(prefix + problem)
            for problem in trigger_problems(fault.trigger):
                problems.append(prefix + problem)
        return problems

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "faults": [fault.as_dict() for fault in self.faults]}


def load_plan(path: str) -> FaultPlan:
    """Load a plan from a Python file exposing a ``plan()`` function.

    This is the ``--plan PATH`` escape hatch of ``python -m repro
    chaos`` — the same pattern as mvelint's ``--catalog``.
    """
    spec = importlib.util.spec_from_file_location("chaos_plan", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load fault plan from {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    factory = getattr(module, "plan", None)
    if factory is None:
        raise ValueError(f"{path!r} does not define a plan() function")
    plan = factory()
    if not isinstance(plan, FaultPlan):
        raise ValueError(f"{path!r}: plan() returned "
                         f"{type(plan).__name__}, expected FaultPlan")
    return plan
