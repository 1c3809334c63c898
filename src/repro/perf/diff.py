"""The ``--diff`` gate: a fresh perf run against a committed baseline.

Every per-scenario key is a virtual-time gauge — ring high-watermark,
stall count, syscalls, latency percentiles — so the comparison is
exact: any drift is a behaviour change, not noise.

* A scenario in the baseline but not in a full run is ``missing`` and
  fails the gate; a ``--scenario`` run is compared only on what it ran.
* A scenario new to the run is reported and passes.
* A scenario run at a different operation count (``--quick``, ``--ops``)
  is ``ops-changed`` and not compared: gauges are deterministic *given*
  the ops, not across them.
* A diff that ends up comparing nothing fails: it checked nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ScenarioDelta:
    """One scenario's comparison verdict."""

    name: str
    #: ``ok`` | ``gauge-mismatch`` | ``missing`` | ``new`` | ``ops-changed``
    status: str
    #: Human-readable gate failures (empty for passing statuses).
    problems: List[str] = field(default_factory=list)


def diff_bench(current: Dict, baseline: Dict, *,
               subset: bool = False) -> List[ScenarioDelta]:
    """Compare two repro-perf/5 payloads, in baseline order (then new
    arrivals).  ``subset`` says ``current`` ran only the scenarios it
    was asked for, so the rest of the baseline is left out."""
    deltas: List[ScenarioDelta] = []
    for name in sorted(baseline):
        if name == "_meta":
            continue
        if name not in current:
            if not subset:
                deltas.append(ScenarioDelta(
                    name, "missing",
                    [f"{name}: in baseline but not in this run"]))
            continue
        if current["_meta"]["ops"].get(name) \
                != baseline["_meta"]["ops"].get(name):
            deltas.append(ScenarioDelta(name, "ops-changed"))
            continue
        old, new = baseline[name], current[name]
        problems = [f"{name}: gauge {key!r} changed "
                    f"{old.get(key)!r} -> {new.get(key)!r}"
                    for key in sorted(set(old) | set(new))
                    if old.get(key) != new.get(key)]
        deltas.append(ScenarioDelta(
            name, "gauge-mismatch" if problems else "ok", problems))
    deltas += [ScenarioDelta(name, "new") for name in sorted(current)
               if name != "_meta" and name not in baseline]
    return deltas


def gate_failures(deltas: List[ScenarioDelta]) -> List[str]:
    """Why the gate fails (empty: it passes)."""
    failures = [problem for delta in deltas for problem in delta.problems]
    if not any(delta.status in ("ok", "gauge-mismatch") for delta in deltas):
        failures.append("no scenario was compared (different --quick/--ops "
                        "than the baseline?)")
    return failures


def format_diff(deltas: List[ScenarioDelta]) -> str:
    """One status line per scenario."""
    return "\n".join(f"  {delta.name:<22} {delta.status}"
                     for delta in deltas)
