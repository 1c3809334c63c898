"""The chaos injector: arms a :class:`FaultPlan` behind the stack's hooks.

An injector is installed like every observer, with
:func:`repro.sites.observing`, and found by each instrumented site when
it runs (``OBS.chaos``).  When none is installed every hook is a single
``is None`` check — the class-level ``created_total`` /
``injected_total`` counters let the regression suite pin that the
disabled path allocates nothing, the same way the Tracer
zero-allocation test does.

Hook protocol
-------------
Instrumented code calls :meth:`ChaosInjector.fire` (or
:meth:`kernel_call` for syscalls, which applies the domain filter) with
the site name and any per-site context.  ``fire`` returns the armed
:class:`~repro.chaos.plan.Fault` when one triggers, ``None`` otherwise;
the *caller* decides what the fault kind means at its site (truncate the
read, raise ``ConnectionReset``, corrupt the record, ...).  Every firing
is logged as an :class:`Injection` so campaign reports can show exactly
what happened and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.chaos.plan import Fault, FaultPlan
from repro.sites import OBS


@dataclass(frozen=True)
class Injection:
    """One fault firing: where, what, and when (virtual time)."""

    at: int
    site: str
    kind: str
    call_index: int
    stage: str

    def as_dict(self) -> Dict[str, Any]:
        return {"at": self.at, "site": self.site, "kind": self.kind,
                "call_index": self.call_index, "stage": self.stage}


class _Armed:
    """A fault plus its remaining-firings budget."""

    __slots__ = ("fault", "fired")

    def __init__(self, fault: Fault) -> None:
        self.fault = fault
        self.fired = 0

    def exhausted(self) -> bool:
        count = self.fault.trigger.count
        return count != -1 and self.fired >= count


class ChaosInjector:
    """Evaluates an armed :class:`FaultPlan` against hook calls.

    The injector tracks virtual time (fed by :meth:`advance` from the
    pump/engine hooks) and the current update stage (fed by
    :meth:`note_stage` from the Mvedsua orchestrator) so ``at-time`` and
    ``at-stage`` triggers resolve without the hooks threading either
    through every call site.  ``domain_filter`` restricts ``kernel.*``
    sites to the named kernel domains — campaign scenarios set it to the
    server's domain so faults never corrupt the *clients'* syscalls.
    """

    #: Class-level counters for the zero-allocation regression test —
    #: the disabled path must construct no injectors and fire nothing.
    created_total = 0
    injected_total = 0

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        ChaosInjector.created_total += 1
        self.plan = plan if plan is not None else FaultPlan("empty")
        problems = self.plan.validate()
        if problems:
            raise ValueError(
                f"invalid fault plan {self.plan.name!r}: " +
                "; ".join(problems))
        self._armed: Dict[str, List[_Armed]] = {}
        for fault in self.plan.faults:
            self._armed.setdefault(fault.site, []).append(_Armed(fault))
        #: Per-site call counters; incremented on every eligible call,
        #: armed or not, so ``on-call`` indices are stable across plans.
        self.site_calls: Dict[str, int] = {}
        self.injections: List[Injection] = []
        self.vnow = 0
        self.stage = ""
        self.domain_filter: Optional[Set[int]] = None

    # -- state fed by the instrumented stack --------------------------

    def advance(self, at: int) -> None:
        """Advance the injector's view of virtual time (monotonic)."""
        if at > self.vnow:
            self.vnow = at

    def note_stage(self, stage: str) -> None:
        """Record the deployment's current update stage."""
        self.stage = stage

    # -- the hook entry points -----------------------------------------

    def fire(self, site: str, **context: Any) -> Optional[Fault]:
        """Evaluate one eligible call at ``site``; return the fault that
        fires, if any.

        Extra keyword context (``fd``, ``when``, ...) is visible to
        predicate triggers alongside the standard ``site`` /
        ``call_index`` / ``at`` / ``stage`` keys.
        """
        index = self.site_calls.get(site, 0) + 1
        self.site_calls[site] = index
        armed = self._armed.get(site)
        if not armed:
            return None
        when = context.get("when")
        if isinstance(when, int):
            self.advance(when)
        for entry in armed:
            if entry.exhausted():
                continue
            if self._matches(entry.fault, index, context):
                entry.fired += 1
                ChaosInjector.injected_total += 1
                injection = Injection(at=self.vnow, site=site,
                                      kind=entry.fault.kind,
                                      call_index=index, stage=self.stage)
                self.injections.append(injection)
                tracer = OBS.tracer
                if tracer is not None:
                    tracer.on_chaos(self.vnow, site, entry.fault.kind,
                                    call_index=index, stage=self.stage)
                return entry.fault
        return None

    def kernel_call(self, site: str, domain: int,
                    fd: int) -> Optional[Fault]:
        """:meth:`fire` for syscall sites, honouring ``domain_filter``.

        Calls from filtered-out domains are not counted: ``on-call``
        indices then number only the *server's* syscalls, which keeps
        campaign grids meaningful when clients share the kernel.
        """
        domains = self.domain_filter
        if domains is not None and domain not in domains:
            return None
        return self.fire(site, domain=domain, fd=fd)

    def _matches(self, fault: Fault, index: int,
                 context: Dict[str, Any]) -> bool:
        trigger = fault.trigger
        if trigger.kind == "on-call":
            return index == trigger.call_index
        if trigger.kind == "at-time":
            return self.vnow >= trigger.at_ns
        if trigger.kind == "at-stage":
            return self.stage == trigger.stage
        # predicate
        ctx = dict(context)
        ctx.update(site=fault.site, call_index=index, at=self.vnow,
                   stage=self.stage)
        return bool(trigger.predicate(ctx))
