"""repro.chaos — deterministic fault injection with invariant checking.

The subsystem has four pieces, mirroring the issue that motivated it:

``plan``
    the declarative :class:`FaultPlan` DSL — fault kind × injection
    site × trigger (event index, virtual time, update stage, or
    predicate), validated against the closed :data:`SITES` registry;
``injector``
    :class:`ChaosInjector`, armed behind zero-cost-when-disabled hooks
    in the sim engine, virtual kernel, MVE runtime, and DSU engine
    (installed with :func:`repro.sites.observing`, like the Tracer);
``invariants``
    the post-run checker: clients saw a gap-free, protocol-valid
    response stream and final leader state matches a fault-free run;
``campaign``
    the grid runner classifying every (site × kind × trigger) cell as
    ``masked`` / ``recovered-demotion`` / ``recovered-rollback`` /
    ``availability-loss`` / ``invariant-violation`` and emitting the
    deterministic ``repro-chaos/1`` report.

Only the dependency-light core (plan + injector) is re-exported here;
import ``repro.chaos.campaign`` / ``.scenarios`` / ``.plans`` / ``.cli``
directly for the rest.
"""

from repro.chaos.injector import ChaosInjector, Injection
from repro.chaos.plan import (SITES, Fault, FaultPlan, Trigger, at_stage,
                              at_time, fault_problems, load_plan, on_call,
                              trigger_problems, when)

__all__ = [
    "SITES",
    "Fault",
    "FaultPlan",
    "Trigger",
    "ChaosInjector",
    "Injection",
    "at_stage",
    "at_time",
    "fault_problems",
    "load_plan",
    "on_call",
    "trigger_problems",
    "when",
]
