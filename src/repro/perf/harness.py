"""Run the ``repro perf`` scenarios into a ``repro-perf/5`` payload.

``BENCH_perf.json`` maps each scenario name to its gauges
(:data:`repro.perf.scenarios.GAUGES`) plus a ``_meta`` entry saying how
the run was parameterized: the schema id, the ``--quick`` flag, ops per
scenario and the scenario order.  Nothing in it is measured on the
host, so the same arguments write the same bytes on any machine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.perf.scenarios import GAUGES, SCENARIOS

#: BENCH_perf.json schema identifier (bump on shape changes).
#: /5 dropped every wall-clock and machine-dependent key.
SCHEMA = "repro-perf/5"

_META_KEYS = ("quick", "ops", "scenario_order")


def run_scenarios(names: Optional[Iterable[str]] = None, *,
                  quick: bool = False, ops: Optional[int] = None) -> Dict:
    """Run the named scenarios (default: all, in registry order) at the
    operation count ``--quick``/``--ops`` resolve to."""
    selected = list(names) if names else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)} "
                       f"(have: {', '.join(SCENARIOS)})")
    payload: Dict[str, Dict] = {}
    counts: Dict[str, int] = {}
    for name in selected:
        n = ops if ops is not None else SCENARIOS[name].default_ops
        if quick and ops is None:
            n = max(1, n // 5)
        counts[name] = n
        payload[name] = SCENARIOS[name].run(n)
    payload["_meta"] = {"schema": SCHEMA, "quick": quick, "ops": counts,
                        "scenario_order": selected}
    return payload


def validate_bench(payload: Dict) -> List[str]:
    """Schema check for a repro-perf/5 payload; returns problem strings
    (empty means valid).  Mirrors ``repro.chaos.campaign.validate_report``
    so CI can gate on the artifact it just wrote."""
    meta = payload.get("_meta")
    if not isinstance(meta, dict):
        return ["missing or malformed _meta"]
    if meta.get("schema") != SCHEMA:
        # Another schema's gauges mean something else: nothing below
        # this line may be compared or checked against it.
        return [f"schema is {meta.get('schema')!r}, want {SCHEMA!r} — "
                "regenerate it with `python -m repro perf --json`"]
    problems = [f"_meta missing {key!r}" for key in _META_KEYS
                if key not in meta]
    scenario_names = sorted(k for k in payload if k != "_meta")
    if not scenario_names:
        problems.append("no scenario entries")
    order = meta.get("scenario_order")
    if isinstance(order, list) and sorted(order) != scenario_names:
        problems.append("_meta.scenario_order does not match the "
                        "scenario entries")
    ops = meta.get("ops")
    if "ops" in meta and not isinstance(ops, dict):
        problems.append("_meta.ops is not an object")
    for name in scenario_names:
        entry = payload[name]
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        problems += [f"{name}: missing integer gauge {key!r}"
                     for key in GAUGES
                     if type(entry.get(key)) is not int]
        if isinstance(ops, dict) and name not in ops:
            problems.append(f"_meta.ops missing {name!r}")
    return problems
