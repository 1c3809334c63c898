"""Analyzer 6: fault-plan lint (MVE6xx).

Fault plans name injection sites and fault kinds from the closed
vocabulary in :data:`repro.chaos.plan.SITES` (the fault rows of
:data:`repro.sites.TABLE`).  A plan naming a site or kind outside it is
silent at runtime: the injector simply never fires and the campaign
reports an all-``masked`` grid that *looks* like resilience.  Checking
plans statically closes that the same way MVE2xx closes rule-coverage
drift; the other direction — a table row whose hook was renamed or never
compiled in — is ``tests/test_sites.py``'s, which probes every site.

====== =============================================================
Code   Meaning
====== =============================================================
MVE601 plan references an unknown injection site, or a fault kind
       that is not legal at its site (ERROR — the fault can never
       fire, so the campaign cell is vacuous)
MVE602 plan trigger is malformed: unknown trigger kind, on-call
       index < 1, negative at-time, unknown stage name, missing
       predicate, or a zero/negative count (ERROR)
====== =============================================================
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from repro.analysis.findings import Finding, Severity
from repro.chaos.plan import FaultPlan, fault_problems, trigger_problems

ANALYZER = "chaos-lint"


def lint_fault_plan(app: str, plan: FaultPlan) -> List[Finding]:
    """All MVE6xx findings for one fault plan."""
    findings: List[Finding] = []
    for index, fault in enumerate(plan.faults):
        location = (f"{app} plan {plan.name} fault[{index}] "
                    f"{fault.site}/{fault.kind}")
        for problem in fault_problems(fault):
            findings.append(Finding("MVE601", Severity.ERROR, ANALYZER,
                                    app, location, problem))
        for problem in trigger_problems(fault.trigger):
            findings.append(Finding("MVE602", Severity.ERROR, ANALYZER,
                                    app, location, problem))
    return findings


def lint_fault_plans(app: str,
                     plan_factories: Iterable[Callable[[], FaultPlan]]
                     ) -> List[Finding]:
    """Lint every fault plan an app's catalog entry declares.

    Plans are declared as zero-argument factories so the catalog stays
    import-cycle-free and plans needing runtime arguments (the E3 rng)
    can bind defaults for linting.
    """
    findings: List[Finding] = []
    for factory in plan_factories:
        findings.extend(lint_fault_plan(app, factory()))
    return findings
