"""Timing harness and BENCH_perf.json payload for ``repro perf``.

Wall-clock numbers are machine-dependent; the value of this file is the
*trajectory*: the same scenarios, run on the same machine across PRs,
must not regress.  ``BENCH_perf.json`` maps each scenario name to
``{wall_s, vreq_per_s, syscalls_per_s}`` — plus every deterministic
gauge the scenario's thunk returned in its ``extras`` dict (ring
pressure for the ring scenarios, recovery latency for the chaos
scenario, exact virtual-time request percentiles
``latency_p50_ns``/``latency_p99_ns``/``latency_p999_ns`` for the
request-loop scenarios) — and a ``_meta`` entry that records how the
run was parameterized: ops per scenario, worker count, CPU count, and
the scenario execution order (``repro-perf/4``).

Scenarios are independent, so ``run_scenarios`` can shard them across
worker processes (``workers > 1``).  Results come back indexed and are
reordered to registry order, so the report differs from a serial run
only in the wall-clock measurements themselves — every deterministic
gauge and every key is identical.
"""

from __future__ import annotations

import functools
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.parallel import map_items
from repro.perf.scenarios import SCENARIOS, Scenario

#: BENCH_perf.json schema identifier (bump on shape changes).
#: /4 added per-scenario virtual-time latency percentiles
#: (``latency_p50_ns``/``latency_p99_ns``/``latency_p999_ns``).
SCHEMA = "repro-perf/4"

#: Per-scenario keys whose values are wall-clock measurements.  They are
#: machine-dependent by nature: the ``--diff`` gate compares them by
#: ratio, never exactly, and parallel runs are expected to differ from
#: serial runs only in these keys.
WALL_CLOCK_KEYS = frozenset({"wall_s", "vreq_per_s", "syscalls_per_s"})

#: ``_meta`` keys every repro-perf/4 payload must carry.
_META_KEYS = ("schema", "quick", "ops", "python", "workers", "cpu_count",
              "scenario_order")


@dataclass
class BenchResult:
    """One scenario's measured outcome."""

    name: str
    description: str
    ops: int
    wall_s: float
    vrequests: int
    syscalls: int
    #: Deterministic scenario gauges, copied into BENCH_perf.json
    #: verbatim (ring pressure, chaos recovery latency, ...).
    extras: Dict[str, int] = field(default_factory=dict)

    @property
    def ring_high_watermark(self) -> Optional[int]:
        """Peak ring occupancy; None for scenarios without a ring."""
        return self.extras.get("ring_high_watermark")

    @property
    def ring_stalls(self) -> Optional[int]:
        """How often a full ring stalled the leader (BufferFull waits)."""
        return self.extras.get("ring_stalls")

    @property
    def vreq_per_s(self) -> float:
        return self.vrequests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def syscalls_per_s(self) -> float:
        return self.syscalls / self.wall_s if self.wall_s > 0 else 0.0


def run_scenario(scenario: Scenario, ops: int, *,
                 repeat: int = 1) -> BenchResult:
    """Build and time one scenario; with ``repeat`` > 1, keep the
    fastest run (each repeat rebuilds the scenario from scratch)."""
    best: Optional[BenchResult] = None
    for _ in range(max(1, repeat)):
        thunk = scenario.build(ops)
        start = time.perf_counter()
        vrequests, syscalls, extras = thunk()
        wall = time.perf_counter() - start
        result = BenchResult(scenario.name, scenario.description, ops,
                             wall, vrequests, syscalls,
                             extras=dict(extras))
        if best is None or result.wall_s < best.wall_s:
            best = result
    return best


def _run_selected(selected: List[str], ops: Optional[int], quick: bool,
                  repeat: int, index: int) -> BenchResult:
    """Run ``selected[index]`` at the operation count --quick/--ops
    resolve to.  Top-level, with plain-data arguments and a plain-data
    BenchResult, so it crosses the process boundary intact."""
    name = selected[index]
    n = ops if ops is not None else SCENARIOS[name].default_ops
    if quick and ops is None:
        n = max(1, n // 5)
    return run_scenario(SCENARIOS[name], n, repeat=repeat)


def run_scenarios(names: Optional[Iterable[str]] = None, *,
                  quick: bool = False, ops: Optional[int] = None,
                  repeat: int = 1, workers: int = 1,
                  mp_method: Optional[str] = None) -> List[BenchResult]:
    """Run the named scenarios (default: all, in registry order).

    ``workers > 1`` shards the scenario list across processes; the
    result list comes back in the requested order, so only wall-clock
    fields can differ from a serial run.
    """
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)} "
                       f"(have: {', '.join(SCENARIOS)})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return map_items(
        functools.partial(_run_selected, selected, ops, quick, repeat),
        len(selected), workers, method=mp_method)


def to_bench_dict(results: List[BenchResult], *, quick: bool = False,
                  workers: int = 1) -> Dict:
    """The BENCH_perf.json payload: scenario -> metrics, plus ``_meta``."""
    payload: Dict[str, Dict] = {}
    for result in results:
        entry = {
            "wall_s": round(result.wall_s, 6),
            "vreq_per_s": round(result.vreq_per_s, 1),
            "syscalls_per_s": round(result.syscalls_per_s, 1),
        }
        entry.update(result.extras)
        payload[result.name] = entry
    payload["_meta"] = {
        "schema": SCHEMA,
        "quick": quick,
        "ops": {r.name: r.ops for r in results},
        "python": platform.python_version(),
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "scenario_order": [r.name for r in results],
    }
    return payload


def validate_bench(payload: Dict) -> List[str]:
    """Schema check for a repro-perf/4 payload; returns problem strings
    (empty means valid).  Mirrors ``repro.chaos.campaign.validate_report``
    so CI can gate on the artifact it just wrote."""
    problems: List[str] = []
    meta = payload.get("_meta")
    if not isinstance(meta, dict):
        return ["missing or malformed _meta"]
    if meta.get("schema") != SCHEMA:
        problems.append(f"schema is {meta.get('schema')!r}, want {SCHEMA!r}")
    for key in _META_KEYS:
        if key not in meta:
            problems.append(f"_meta missing {key!r}")
    for key in ("workers", "cpu_count"):
        value = meta.get(key)
        if key in meta and (not isinstance(value, int) or value < 1):
            problems.append(f"_meta[{key!r}] must be a positive int, "
                            f"got {value!r}")
    scenario_names = sorted(k for k in payload if k != "_meta")
    if not scenario_names:
        problems.append("no scenario entries")
    order = meta.get("scenario_order")
    if isinstance(order, list) and sorted(order) != scenario_names:
        problems.append("_meta.scenario_order does not match the "
                        "scenario entries")
    ops = meta.get("ops")
    for name in scenario_names:
        entry = payload[name]
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        for key in sorted(WALL_CLOCK_KEYS):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"{name}: missing numeric {key!r}")
        if isinstance(ops, dict) and name not in ops:
            problems.append(f"_meta.ops missing {name!r}")
    return problems
