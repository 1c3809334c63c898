"""The chaos injector: arms a :class:`FaultPlan` behind the stack's hooks.

An injector is installed like every observer, with
:func:`repro.sites.observing`, and found by each instrumented site when
it runs (``OBS.chaos``).  When none is installed every hook is a single
``is None`` check; the regression suite pins that the disabled path
builds no injector and fires nothing by counting constructions and
``fire`` results for the run (``tests/counting.py``), the same way the
Tracer zero-allocation test counts the writer.

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
    """A fault plus how many times it has fired (its trigger's ``count``
    is the budget, -1 for none)."""

    __slots__ = ("fault", "fired")

    def __init__(self, fault: Fault) -> None:
        self.fault = fault
        self.fired = 0


class ChaosInjector:
    """Evaluates an armed :class:`FaultPlan` against hook calls.

    ``at-time`` and ``at-stage`` triggers read the run's position,
    ``repro.sites.OBS.vnow`` and ``OBS.stage`` — moved by the sites and
    the Mvedsua orchestrator, never by the injector — so neither is
    threaded through every call site.  ``domain_filter`` restricts
    ``kernel.*`` sites to the named kernel domains — campaign scenarios
    set it to the server's domain so faults never corrupt the
    *clients'* syscalls.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
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
        self.domain_filter: Optional[Set[int]] = None

    def advance(self, at: int) -> None:
        """Move the run clock to ``at``.  No site calls this any more (the
        sites move ``OBS.vnow`` themselves); it stays a plain function
        because the frozen probe table in ``hostbench/probes.py``
        resolves it."""
        OBS.vnow = max(OBS.vnow, at)

    # -- the hook entry points -----------------------------------------

    def fire(self, site: str, **context: Any) -> Optional[Fault]:
        """Evaluate one eligible call at ``site``; return the fault that
        fires, if any.

        Extra keyword context (``fd``, ``when``, ...) is visible to
        predicate triggers alongside the standard ``site`` /
        ``call_index`` / ``at`` / ``stage`` keys.  A site that passes
        ``when`` (its own virtual time) is judged and stamped at that
        time when it is past the run clock; the clock stays where the
        sites put it.
        """
        index = self.site_calls.get(site, 0) + 1
        self.site_calls[site] = index
        armed = self._armed.get(site)
        if not armed:
            return None
        at, stage = OBS.vnow, OBS.stage
        when = context.get("when")
        if isinstance(when, int) and when > at:
            at = when
        for entry in armed:
            budget = entry.fault.trigger.count
            if budget != -1 and entry.fired >= budget:
                continue  # spent
            if self._matches(entry.fault, index, at, stage, context):
                entry.fired += 1
                injection = Injection(at=at, site=site,
                                      kind=entry.fault.kind,
                                      call_index=index, stage=stage)
                self.injections.append(injection)
                tracer = OBS.tracer
                if tracer is not None:
                    tracer.emit("chaos.inject", "chaos", at=at, site=site,
                                fault=entry.fault.kind, call_index=index,
                                stage=stage)
                return entry.fault
        return None

    def kernel_call(self, site: str, domain: int,
                    fd: int) -> Optional[Fault]:
        """:meth:`fire` for syscall sites, honouring ``domain_filter``.

        Calls from filtered-out domains are not counted: ``on-call``
        indices then number only the *server's* syscalls, which keeps
        campaign grids meaningful when clients share the kernel.  At a
        site no fault is armed at, a call is counted here and goes no
        further: only armed sites enter :meth:`fire`.
        """
        domains = self.domain_filter
        if domains is not None and domain not in domains:
            return None
        if site not in self._armed:
            calls = self.site_calls
            calls[site] = calls.get(site, 0) + 1
            return None
        return self.fire(site, domain=domain, fd=fd)

    @staticmethod
    def _matches(fault: Fault, index: int, at: int, stage: str,
                 context: Dict[str, Any]) -> bool:
        trigger = fault.trigger
        if trigger.kind == "on-call":
            return index == trigger.call_index
        if trigger.kind == "at-time":
            return at >= trigger.at_ns
        if trigger.kind == "at-stage":
            return stage == trigger.stage
        # predicate
        ctx = dict(context)
        ctx.update(site=fault.site, call_index=index, at=at, stage=stage)
        return bool(trigger.predicate(ctx))
