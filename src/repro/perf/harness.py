"""Run the ``repro perf`` scenarios into a ``repro-perf/5`` payload.

``BENCH_perf.json`` maps each scenario name to its gauges
(:data:`repro.perf.scenarios.GAUGES`) plus a ``_meta`` entry saying how
the run was parameterized: the schema id, the ``--quick`` flag, ops per
scenario and the scenario order.  Nothing in it is measured on the
host, so the same arguments write the same bytes on any machine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.perf.scenarios import GAUGES, SCENARIOS
from repro.report import ANY, INT, STR, ListOf, MapOf, Obj, const, problems

#: BENCH_perf.json schema identifier (bump on shape changes).
#: /5 dropped every wall-clock and machine-dependent key.
SCHEMA = "repro-perf/5"

#: What ``_meta`` and one scenario's gauges look like
#: (:mod:`repro.report`); every other top-level key is a scenario.
META_SHAPE = Obj({"schema": const(SCHEMA), "quick": ANY, "ops": MapOf(ANY),
                  "scenario_order": ListOf(STR)})
GAUGES_SHAPE = Obj({gauge: INT for gauge in GAUGES})


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


def _order_and_ops(names: List[str], meta: Dict) -> List[str]:
    """Cross-check of a shape-valid ``_meta`` against the payload's
    scenario ``names``: it must list and size exactly those."""
    found = [] if names else ["no scenario entries"]
    if sorted(meta["scenario_order"]) != names:
        found.append("_meta.scenario_order does not match the scenario "
                     "entries")
    return found + [f"_meta.ops missing {name!r}" for name in names
                    if name not in meta["ops"]]


def validate_bench(payload: Any) -> List[str]:
    """Problems with a repro-perf/5 payload (empty means valid): CI's
    gate on what it just wrote, ``--diff``'s on what it was handed."""
    if not isinstance(payload, dict):
        return ["not a JSON object"]
    meta = payload.get("_meta")
    if not isinstance(meta, dict):
        return ["missing or malformed _meta"]
    if meta.get("schema") != SCHEMA:
        # Another schema's gauges mean something else: nothing below
        # this line may be compared or checked against it.
        return [f"schema is {meta.get('schema')!r}, want {SCHEMA!r} — "
                "regenerate it with `python -m repro perf --json`"]
    names = sorted(name for name in payload if name != "_meta")
    found = problems(meta, META_SHAPE, "_meta",
                     lambda shaped: _order_and_ops(names, shaped))
    for name in names:
        found += problems(payload[name], GAUGES_SHAPE, f"{name}:")
    return found
