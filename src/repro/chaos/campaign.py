"""The chaos campaign runner.

A campaign enumerates a grid of single-fault cells over the scenario's
injection sites — every reachable ``on-call`` index plus ``at-stage``,
``at-time`` and predicate triggers — runs the scenario once per cell
under a fresh :class:`~repro.chaos.injector.ChaosInjector`, and
classifies each run against a fault-free golden baseline:

``masked``
    clients saw behaviour identical to the fault-free run (including
    cells whose trigger never fired);
``recovered-demotion``
    the leader crashed and the follower was promoted — §3.2's "the new
    version fixes an old-version bug" path, inverted or not;
``recovered-rollback``
    the update was rolled back (divergence, follower crash, or a cleanly
    aborted update) and the old version served throughout;
``availability-loss``
    at least one client lost service — an honest outage, but no lie;
``invariant-violation``
    the response stream or final state broke the
    :mod:`~repro.chaos.invariants` model — the only unacceptable
    outcome, and the one MVEDSUA's design argues cannot happen.

The report (schema ``repro-chaos/1``) is deterministic: same seed and
grid → bit-identical JSON, which the regression suite pins.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import scenarios
from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import check_run
from repro.chaos.plan import (SITES, STAGE_NAMES, Fault, FaultPlan, at_stage,
                              at_time, on_call, when)
from repro.chaos.scenarios import ChaosRunResult, buggy_v2_factory
from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.report import (ANY, INT, NAT, STR, ListOf, MapOf, Obj, const,
                          one_of, problems)
from repro.servers.kvstore import xform_drop_table
from repro.sites import observing

CHAOS_SCHEMA = "repro-chaos/1"

#: The outcome taxonomy, from benign to broken.  ``ordering-anomaly``
#: flags a cell whose recovery event carries a virtual timestamp
#: *before* its first injection — a clock/causality bug in the
#: simulator or scenario, never silently normalised away.
OUTCOMES = ("masked", "recovered-demotion", "recovered-rollback",
            "availability-loss", "ordering-anomaly",
            "invariant-violation")

#: What a ``repro-chaos/1`` report looks like (:mod:`repro.report`).
CHAOS_SHAPE = Obj({
    "schema": const(CHAOS_SCHEMA), "scenario": STR, "seed": INT,
    "cells": NAT, "outcomes": MapOf(NAT, OUTCOMES),
    "golden": Obj({"observations": ANY}),
    "grid": ListOf(Obj({
        "name": ANY, "site": ANY, "kind": ANY, "trigger": ANY,
        "outcome": one_of(OUTCOMES), "detail": ANY,
        "injections": ListOf(ANY)}), min_len=1),
})

#: Upper bound on per-(site, kind) ``on-call`` indices in the default
#: grid, so a chattier scenario cannot explode the sweep.
ONCALL_CAP = 24

#: (site, kind) pairs that fire during normal serving — swept again under
#: ``at-stage`` and ``at-time`` triggers.  The one-shot ``dsu.*`` sites
#: are excluded: their single call is fully covered by ``on-call``.
RUNTIME_SITE_KINDS: Tuple[Tuple[str, str], ...] = tuple(
    (site, kind)
    for site in ("kernel.read", "kernel.write", "kernel.accept",
                 "mve.leader", "mve.follower", "mve.ring")
    for kind in SITES[site])

#: Virtual times for the ``at-time`` sweep — one per lifecycle phase.
AT_TIMES = (2_000_000_000, 6_500_000_000, 11_500_000_000, 16_500_000_000)


def _runtime_site_kinds(site_calls: Dict[str, int]) \
        -> Tuple[Tuple[str, str], ...]:
    """:data:`RUNTIME_SITE_KINDS` plus the wire site when the probe run
    actually reached it — distributed scenarios sweep ``fleet.ring``
    partitions under at-stage/at-time triggers too, while local
    scenarios keep their pinned grid byte-identical."""
    kinds = list(RUNTIME_SITE_KINDS)
    if site_calls.get("fleet.ring", 0) > 0:
        kinds.extend(("fleet.ring", kind)
                     for kind in SITES["fleet.ring"])
    return tuple(kinds)


def _param_for(site: str, kind: str, seed: int) -> Dict[str, Any]:
    """Deterministic fault parameters for one grid cell."""
    if kind == "short-read":
        return {"bytes": 5}
    if kind == "short-write":
        return {"bytes": 3}
    if kind == "buggy-version":
        return {"factory": buggy_v2_factory}
    if (site, kind) == ("dsu.quiesce", "race"):
        # probability 1.0 keeps the cell deterministic: the resample
        # always blocks a worker, so quiescence always fails.
        return {"rng": random.Random(1_000_003 * seed + 17),
                "probability": 1.0}
    if (site, kind) == ("dsu.quiesce", "delay"):
        # Longer than Mvedsua's 50 ms quiescence budget: a clean abort.
        return {"delay_ns": 60_000_000}
    if (site, kind) == ("dsu.transform", "replace"):
        # A transformer that silently loses the whole table — the E2
        # fault class, kvstore edition.
        return {"transformer": xform_drop_table}
    return {}


def default_grid(site_calls: Dict[str, int], seed: int, *,
                 oncall_cap: int = ONCALL_CAP) -> List[Fault]:
    """The full (site × kind × trigger) sweep for one scenario.

    ``site_calls`` comes from a fault-free probe run and bounds the
    ``on-call`` index range per site, so every on-call cell is reachable
    (a count of zero yields no cells for that site).  ``oncall_cap``
    bounds the per-(site, kind) index sweep; raising it on the CLI
    (``--oncall-cap``) widens the grid without a source edit.
    """
    faults: List[Fault] = []

    def add(site: str, kind: str, trigger) -> None:
        faults.append(Fault(site, kind, trigger,
                            param=_param_for(site, kind, seed)))

    for site in ("kernel.read", "kernel.write", "kernel.accept",
                 "mve.leader", "mve.follower", "mve.ring",
                 "dsu.update", "dsu.quiesce", "dsu.transform",
                 "fleet.ring"):
        calls = min(site_calls.get(site, 0), oncall_cap)
        for kind in SITES[site]:
            for index in range(1, calls + 1):
                add(site, kind, on_call(index))
    runtime_kinds = _runtime_site_kinds(site_calls)
    for stage in STAGE_NAMES:
        for site, kind in runtime_kinds:
            add(site, kind, at_stage(stage))
    for at_ns in AT_TIMES:
        for site, kind in runtime_kinds:
            add(site, kind, at_time(at_ns))
    # Predicate cells: compound conditions no fixed trigger expresses.
    add("kernel.read", "econnreset",
        when(lambda ctx: ctx["call_index"] % 5 == 0,
             label="every 5th read"))
    add("kernel.read", "econnreset",
        when(lambda ctx: ctx["stage"] == "updated-leader",
             label="first read after promote"))
    add("kernel.write", "epipe",
        when(lambda ctx: ctx["call_index"] % 7 == 0,
             label="every 7th write"))
    add("kernel.write", "epipe",
        when(lambda ctx: ctx["stage"] == "updated-leader",
             label="first write after promote"))
    add("mve.follower", "crash",
        when(lambda ctx: ctx["at"] >= 7_000_000_000,
             label="first replay after t=7s"))
    add("mve.leader", "crash",
        when(lambda ctx: ctx["call_index"] == 10
             and ctx["stage"] == "outdated-leader",
             label="10th iteration while outdated"))
    if site_calls.get("fleet.ring", 0) > 0:
        # A sustained partition: every frame is dropped, so the
        # retransmit delay accrues until the link's demote budget
        # trips — the demotion-on-timeout path end to end.
        add("fleet.ring", "partition-drop",
            when(lambda ctx: True, count=-1, label="sustained partition"))
        add("fleet.ring", "partition-delay",
            when(lambda ctx: ctx["stage"] == "outdated-leader",
                 count=-1, label="degraded link during catch-up"))
    return faults


def classify(result: ChaosRunResult,
             golden: ChaosRunResult) -> Tuple[str, str]:
    """One cell's (outcome, detail) against the fault-free baseline."""
    problems = check_run(result.observations, result.final_table)
    if problems:
        return "invariant-violation", problems[0]
    if result.service_crashed:
        return ("availability-loss",
                "service crashed with no surviving process")
    disturbed = sorted({obs.client for obs in result.observations
                        if obs.reply is None})
    if disturbed:
        return ("availability-loss",
                "clients lost service: " + ", ".join(disturbed))
    timeline = result.timeline
    if timeline is not None and timeline.ended_by == "leader-crash":
        return ("recovered-demotion",
                f"leader crashed; surviving {result.final_version} "
                f"follower was promoted")
    if timeline is not None and timeline.rolled_back():
        return ("recovered-rollback",
                f"update rolled back ({timeline.ended_by}); the old "
                f"version served throughout")
    if not result.update_ok:
        return ("recovered-rollback",
                f"update aborted cleanly: {result.update_reason}")
    if (result.replies() == golden.replies()
            and result.final_table == golden.final_table
            and result.final_version == golden.final_version):
        if not result.injections:
            return "masked", "fault never triggered"
        return ("masked",
                "client-visible behaviour identical to the fault-free run")
    return ("invariant-violation",
            "run diverged from the fault-free baseline without a "
            "recovery event")


def recovery_at(result: ChaosRunResult) -> Optional[int]:
    """When the run recovered: the instant its update ended other than
    by finalization (None: it did not)."""
    timeline = result.timeline
    if timeline is None or timeline.ended_by == "finalize":
        return None
    if timeline.rolled_back():
        return timeline.rolled_back_at
    return timeline.t6_finalized


def probe_site_calls(scenario: str = "kvstore") -> Dict[str, int]:
    """Per-site call counts from one fault-free instrumented run."""
    probe = ChaosInjector(FaultPlan("probe"))
    with observing(chaos=probe):
        scenarios.run_cell("chaos", scenario)
    return dict(probe.site_calls)


def run_cell(plan: FaultPlan,
             scenario: str = "kvstore") -> ChaosRunResult:
    """Run the scenario once under ``plan``'s injector."""
    with observing(chaos=ChaosInjector(plan)):
        return scenarios.run_cell("chaos", scenario)


def cell_entry(name: str, cell_plan: FaultPlan, result: ChaosRunResult,
               golden: ChaosRunResult) -> Dict[str, Any]:
    """Classify one cell's run and build its report entry.

    Pure given its inputs — the serial loop and the parallel workers
    both call this, which is what keeps their reports byte-identical.
    """
    outcome, detail = classify(result, golden)
    first_at = result.injections[0]["at"] if result.injections else None
    # The raw signed delta: a negative recovery latency means the
    # recovery event predates the injection that caused it, which is a
    # causality bug worth shouting about — not a value to clamp to 0.
    latency = None
    recovered = recovery_at(result)
    if first_at is not None and recovered is not None:
        latency = recovered - first_at
        if latency < 0:
            outcome = "ordering-anomaly"
            detail = (f"recovery at {recovered} predates first "
                      f"injection at {first_at} "
                      f"(delta {latency} ns); was: {detail}")
    lead = cell_plan.faults[0] if cell_plan.faults else None
    entry: Dict[str, Any] = {
        "name": name,
        "site": lead.site if lead else "",
        "kind": lead.kind if lead else "",
        "trigger": lead.trigger.as_dict() if lead else None,
        "outcome": outcome,
        "detail": detail,
        "injections": result.injections,
        "first_injection_at": first_at,
        "recovery_latency_ns": latency,
        "final_version": result.final_version,
        "update_reason": result.update_reason,
    }
    if result.forensics is not None:
        entry["forensics"] = result.forensics
    return entry


def _recorded(run: Callable[[], ChaosRunResult], record: Optional[str],
              scenario: str) -> ChaosRunResult:
    """``run()`` — recorded, when ``record`` is a path, into a
    ``repro-run/1`` log there (the run log's writer in the recorder
    slot alone)."""
    if record is None:
        return run()
    log = Tracer(experiment=scenario)
    with observing(recorder=log):
        result = run()
    log.write(record)
    return result


def _grid_cells(faults: List[Fault], scenario: str,
                golden: ChaosRunResult) -> List[Dict[str, Any]]:
    """One report entry per grid fault, each run as a one-fault plan."""
    entries = []
    for fault in faults:
        name = fault.describe()
        cell_plan = FaultPlan(name, (fault,))
        entries.append(cell_entry(name, cell_plan,
                                  run_cell(cell_plan, scenario), golden))
    return entries


def run_grid_shard(scenario: str, seed: int, oncall_cap: int,
                   site_calls: Dict[str, int], max_cells: Optional[int],
                   indices: List[int]) -> List[Dict[str, Any]]:
    """Pool worker: the grid cells at ``indices``, in that order.

    :class:`Fault` objects are not picklable (predicate triggers,
    version factories, seeded RNGs are closures and live objects), so a
    worker never receives faults: it receives this picklable
    *description* of the grid and regenerates the exact grid locally via
    :func:`default_grid`, relying on the same determinism the report
    schema already pins (same seed → same grid).  It also runs its own
    fault-free golden baseline (a few milliseconds) rather than having
    one shipped across the process boundary.
    """
    golden = scenarios.run_cell("chaos", scenario)
    grid_faults = default_grid(site_calls, seed,
                               oncall_cap=oncall_cap)[:max_cells]
    return _grid_cells([grid_faults[index] for index in indices],
                       scenario, golden)


def run_campaign(scenario: str = "kvstore", *, seed: int = 1,
                 max_cells: Optional[int] = None,
                 plan: Optional[FaultPlan] = None,
                 workers: int = 1,
                 oncall_cap: int = ONCALL_CAP,
                 record: Optional[str] = None) -> Dict[str, Any]:
    """Run the full campaign and return the ``repro-chaos/1`` report.

    With ``plan`` the campaign runs that single (possibly multi-fault)
    plan as its only cell instead of the generated grid; ``max_cells``
    truncates the grid to a deterministic prefix.  ``workers > 1``
    shards grid cells across processes (:func:`run_grid_shard` under
    :func:`repro.parallel.map_shards`); the merged report is byte-identical
    to the serial run for the same seed, so the serial path stays the
    golden reference.  ``record`` writes a run log recording the
    baseline run — or, with ``plan``, the faulted run itself, so the
    recording carries the plan in force.
    """
    if scenario not in scenarios.SCENARIOS["chaos"]:
        raise SimulationError(f"unknown chaos scenario: {scenario!r}")
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if oncall_cap < 1:
        raise SimulationError(f"oncall-cap must be >= 1, got {oncall_cap}")
    if max_cells is not None and max_cells < 1:
        raise SimulationError(f"max-cells must be >= 1, got {max_cells}")
    golden = _recorded(functools.partial(scenarios.run_cell, "chaos",
                                         scenario),
                       record if plan is None else None, scenario)
    golden_problems = check_run(golden.observations, golden.final_table)
    if golden_problems:
        raise SimulationError(
            "golden run violates its own invariants: "
            + golden_problems[0])

    if plan is not None:
        result = _recorded(functools.partial(run_cell, plan, scenario),
                           record, scenario)
        grid = [cell_entry(plan.name, plan, result, golden)]
    else:
        site_calls = probe_site_calls(scenario)
        grid_faults = default_grid(site_calls, seed,
                                   oncall_cap=oncall_cap)[:max_cells]
        if workers > 1 and len(grid_faults) > 1:
            # Imported here: a serial campaign should not pay for
            # loading multiprocessing (1.2 MB on a 22 MB process).
            from repro.parallel import map_shards
            grid = map_shards(
                functools.partial(run_grid_shard, scenario, seed,
                                  oncall_cap, dict(site_calls), max_cells),
                len(grid_faults), workers)
        else:
            grid = _grid_cells(grid_faults, scenario, golden)

    tally = {outcome: 0 for outcome in OUTCOMES}
    for entry in grid:
        tally[entry["outcome"]] += 1

    return {
        "schema": CHAOS_SCHEMA,
        "scenario": scenario,
        "seed": seed,
        "cells": len(grid),
        "outcomes": tally,
        "golden": {
            "observations": [obs.as_dict()
                             for obs in golden.observations],
            "final_table": golden.final_table,
            "final_version": golden.final_version,
            "finalized": bool(golden.timeline
                              and golden.timeline.succeeded()),
        },
        "grid": grid,
    }


def _tally_problems(report: Dict[str, Any]) -> List[str]:
    """Cross-check of a shape-valid report: its tallies are the grid's."""
    found: List[str] = []
    grid = report["grid"]
    if report["cells"] != len(grid):
        found.append(f"cells={report['cells']!r} but the grid has "
                     f"{len(grid)} entries")
    recount = {outcome: 0 for outcome in OUTCOMES}
    for entry in grid:
        recount[entry["outcome"]] += 1
    if report["outcomes"] != recount:
        found.append("outcome tally does not match the grid")
    return found


def validate_report(payload: Any) -> List[str]:
    """Problems with a ``repro-chaos/1`` report (empty = valid)."""
    return problems(payload, CHAOS_SHAPE, "", _tally_problems)
