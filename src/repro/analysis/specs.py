"""Lint of the specs an app's catalog entry declares (MVE6xx, MVE7xx,
MVE10xx).

An :class:`~repro.apps.AppConfig` declares three kinds of plain-data
spec, each as zero-argument factories so the catalog import stays cheap
and cycle-free (and a plan needing runtime arguments, the E3 rng, can
bind defaults for linting).  Each spec validates itself; a bad one is
silent or late at runtime — a fault plan naming an unknown site never
fires and its campaign reads as all-``masked`` resilience, a fleet wave
wider than the replication factor drains whole shards mid-upgrade, a
load spec with a typo'd distribution measures nothing.  So the lint is
one table, :data:`SPEC_LINTS`, whose rows only map the spec's own
validators to finding codes; the analyzer and the runtime can never
disagree:

* ``fault_plans`` (analyzer ``chaos-lint``):
  :func:`~repro.chaos.plan.fault_problems` → MVE601,
  :func:`~repro.chaos.plan.trigger_problems` → MVE602;
* ``fleet_topologies`` (``fleet-lint``): the
  :class:`~repro.cluster.shard.FleetSpec` methods ``shape_problems`` →
  MVE703, ``drain_problems`` → MVE701, ``advisories`` → MVE702
  (WARNING), ``link_problems`` → MVE704;
* ``workload_specs`` (``workload-lint``):
  :func:`~repro.workloads.openloop.spec_problems`, one code per
  category (MVE1001–MVE1005).

Every finding but MVE702 is an ERROR.  ``docs/linting.md`` §6, §7 and
§9 spell out each code.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.analysis.findings import Finding, Severity
from repro.apps import AppConfig
from repro.chaos.plan import fault_problems, trigger_problems
from repro.workloads.openloop import spec_problems

ERROR, WARNING = Severity.ERROR, Severity.WARNING

#: What a row yields per problem: (subject, code, severity, message);
#: the finding's location is the app name and the subject.
Problem = Tuple[str, str, Severity, str]


def _fault_plan(plan: Any) -> Iterator[Problem]:
    for index, fault in enumerate(plan.faults):
        subject = (f"plan {plan.name} fault[{index}] "
                   f"{fault.site}/{fault.kind}")
        for problem in fault_problems(fault):
            yield subject, "MVE601", ERROR, problem
        for problem in trigger_problems(fault.trigger):
            yield subject, "MVE602", ERROR, problem


def _fleet_topology(spec: Any) -> Iterator[Problem]:
    subject = (f"fleet {spec.shards}x{spec.replicas_per_shard} "
               f"wave={spec.wave_size}")
    for code, severity, check in (("MVE703", ERROR, spec.shape_problems),
                                  ("MVE701", ERROR, spec.drain_problems),
                                  ("MVE702", WARNING, spec.advisories),
                                  ("MVE704", ERROR, spec.link_problems)):
        for problem in check():
            yield subject, code, severity, problem


#: ``spec_problems`` category -> finding code.
_WORKLOAD_CODES = {
    "arrival-process": "MVE1001",
    "key-distribution": "MVE1001",
    "arrival-rate": "MVE1002",
    "zipf-exponent": "MVE1003",
    "churn": "MVE1004",
    "shape": "MVE1005",
}


def _workload_spec(spec: Any) -> Iterator[Problem]:
    for category, problem in spec_problems(spec):
        yield (f"workload {spec.name}", _WORKLOAD_CODES[category], ERROR,
               problem)


#: ``AppConfig`` field -> (analyzer name, the spec's problems).
SPEC_LINTS: Dict[str, Tuple[str, Callable[[Any], Iterator[Problem]]]] = {
    "fault_plans": ("chaos-lint", _fault_plan),
    "fleet_topologies": ("fleet-lint", _fleet_topology),
    "workload_specs": ("workload-lint", _workload_spec),
}


def lint_spec(app: str, field: str, spec: Any) -> List[Finding]:
    """The findings for one spec of the kind ``AppConfig.<field>``
    declares."""
    analyzer, problems = SPEC_LINTS[field]
    return [Finding(code, severity, analyzer, app, f"{app} {subject}",
                    message)
            for subject, code, severity, message in problems(spec)]


def lint_specs(config: AppConfig) -> List[Finding]:
    """The findings for every spec ``config`` declares, in table order."""
    return [finding for field in SPEC_LINTS
            for factory in getattr(config, field)
            for finding in lint_spec(config.name, field, factory())]
