"""Run the ``repro perf`` rows into a ``repro-perf/5`` payload.

``BENCH_perf.json`` maps each ``perf`` row of
:data:`repro.scenarios.SCENARIOS` to its :data:`GAUGES`, read off the
Varan runtime and client the row's drive returns (no tracer installed),
plus a ``_meta`` entry saying how the run was parameterized: the schema
id, the ``--quick`` flag, ops per scenario and the scenario order.
Nothing in it is measured on the host, so the same arguments write the
same bytes on any machine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.mve.dsl.rules import Direction, RewriteRule, RuleSet, SyscallPattern
from repro.obs.slo import summarize_latencies
from repro.report import ANY, INT, STR, ListOf, MapOf, Obj, const, problems
from repro.scenarios import SCENARIOS, run_cell
from repro.syscalls.model import Sys

#: Every scenario reports exactly these, in table order.
GAUGES = ("vrequests", "syscalls", "ring_high_watermark", "ring_stalls",
          "latency_p50_ns", "latency_p99_ns", "latency_p999_ns")

#: BENCH_perf.json schema identifier (bump on shape changes).
#: /5 dropped every wall-clock and machine-dependent key.
SCHEMA = "repro-perf/5"

#: What ``_meta`` and one scenario's gauges look like
#: (:mod:`repro.report`); every other top-level key is a scenario.
META_SHAPE = Obj({"schema": const(SCHEMA), "quick": ANY, "ops": MapOf(ANY),
                  "scenario_order": ListOf(STR)})
GAUGES_SHAPE = Obj({gauge: INT for gauge in GAUGES})


#: Syscalls a realistic filesystem/session rule catalogue spreads over.
_CATALOG_SYSCALLS = (Sys.OPEN, Sys.UNLINK, Sys.RENAME, Sys.STAT, Sys.MKDIR,
                     Sys.RMDIR, Sys.CONNECT, Sys.LISTEN, Sys.ACCEPT,
                     Sys.CLOSE, Sys.READ, Sys.WRITE)


def rule_heavy_catalog(base: RuleSet) -> RuleSet:
    """A large rule catalogue in the shape real deployments accumulate.

    Starts from ``base`` (the genuine Redis 2.0.0 -> 2.0.1 rules) and
    pads with 120 guarded single-record rules spread across the syscall
    vocabulary — banner rewrites, path renames, session tweaks — whose
    predicates never fire for the scenario's stream.  This mirrors the
    paper's observation that the overwhelming majority of records match
    no rule: the engine's job is to get out of the way.
    """
    pads = []
    for index in range(120):
        sysname = _CATALOG_SYSCALLS[index % len(_CATALOG_SYSCALLS)]
        token = f"#pad-{sysname.value}-{index}".encode()
        pads.append(RewriteRule(
            f"pad_{sysname.value}_{index}",
            [SyscallPattern(sysname,
                            predicate=lambda d, t=token: d.startswith(t))],
            list, direction=Direction.BOTH))
    return RuleSet(base.rules + pads)


def gauges(run: Tuple[Any, Any], ops: int) -> Dict[str, int]:
    """:data:`GAUGES` of a finished ``perf`` run: the Varan runtime and
    the client its drive returned, after ``ops`` requests."""
    varan, client = run
    return {"vrequests": ops,
            "syscalls": varan.total_syscalls,
            "ring_high_watermark": varan.ring.high_watermark,
            "ring_stalls": varan.ring_stalls,
            **summarize_latencies(client.latencies_ns)}


def run_scenarios(names: Optional[Iterable[str]] = None, *,
                  quick: bool = False, ops: Optional[int] = None) -> Dict:
    """Run the named scenarios (default: all, in table order) at the
    operation count ``--quick``/``--ops`` resolve to."""
    rows = SCENARIOS["perf"]
    selected = list(names) if names else list(rows)
    unknown = [n for n in selected if n not in rows]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)} "
                       f"(have: {', '.join(rows)})")
    payload: Dict[str, Dict] = {}
    counts: Dict[str, int] = {}
    for name in selected:
        _, cell = rows[name].cells[0]
        n = ops if ops is not None else cell["ops"]
        if quick and ops is None:
            n = max(1, n // 5)
        counts[name] = n
        payload[name] = gauges(run_cell("perf", name, quick=quick, ops=n), n)
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
