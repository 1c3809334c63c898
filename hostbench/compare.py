"""Compare two hostbench sets: ``python3 hostbench/compare.py A.json B.json``.

A set is what ``run.py --out`` writes.  A is the base (the parent
commit, or the first of two runs of one commit), B the candidate.  One
row per (workload, metric) with both medians, their quartiles, and the
ratio B/A with its base.  Status per row:

* ``regression`` — B's median is worse than A's by more than the
  metric's bound.  Any such row makes the exit code 1.
* ``unresolved`` — within the bound, but the sets' own run-to-run
  spread (quartile distance over median) is wider than the bound, so
  "unchanged" cannot be claimed — unless every B sample beats every A
  sample, which reads ``improved``.
* ``ok`` — within the bound, and the spread is narrower than the bound.

The bounds of the host-time metrics are those of ``BENCHMARK.json``
(``setup_s`` also tolerates +0.05 s, whichever is larger, because a
50 ms wobble on a 0.2 s set-up is scheduler noise).  ``fail_share`` and
``vlat_max_ns`` are exact: any increase is a regression, and a
``vlat_max_ns`` that moved at all is flagged ``changed``, because a
host-speed change must leave virtual time alone.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Absolute slack on ``setup_s`` (seconds).
SETUP_SLACK_S = 0.05
EXACT = ("fail_share", "vlat_max_ns")


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {metric["name"]: (metric["better"], metric["bound"])
            for metric in spec["end_to_end"]}


def _iqr_share(stats: Dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] \
        if stats["median"] else 0.0


def judge(name: str, better: str, bound: float, a: Dict[str, Any],
          b: Dict[str, Any]) -> str:
    """Status of one host-time metric (see the module docstring)."""
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b["median"] - a["median"])
    allowed = bound * a["median"]
    if name == "setup_s":
        allowed = max(allowed, SETUP_SLACK_S)
    if worse_by > allowed:
        return "regression"
    if max(_iqr_share(a), _iqr_share(b)) > bound:
        if better == "lower":
            clear = max(b["samples"]) < min(a["samples"])
        else:
            clear = min(b["samples"]) > max(a["samples"])
        return "improved" if clear else "unresolved"
    return "ok"


def compare(set_a: Dict[str, Any], set_b: Dict[str, Any],
            bounds: Dict[str, Tuple[str, float]]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both sets."""
    rows = []
    for workload, a in set_a["workloads"].items():
        b = set_b["workloads"].get(workload)
        if b is None:
            continue
        for name, (better, bound) in bounds.items():
            stats_a, stats_b = a["end_to_end"][name], b["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name,
                "a": stats_a["median"], "a_q": (stats_a["q1"], stats_a["q3"]),
                "b": stats_b["median"], "b_q": (stats_b["q1"], stats_b["q3"]),
                "status": judge(name, better, bound, stats_a, stats_b)})
        for name in EXACT:
            if b[name] > a[name]:
                status = "regression"
            elif b[name] != a[name]:
                status = "changed"
            else:
                status = "ok"
            rows.append({"workload": workload, "metric": name,
                         "a": a[name], "a_q": None, "b": b[name],
                         "b_q": None, "status": status})
    return rows


def _cell(value: float, quartiles: Optional[Tuple[float, float]]) -> str:
    if quartiles is None:
        return f"{value:.6g}"
    return f"{value:.6g} [{quartiles[0]:.6g}, {quartiles[1]:.6g}]"


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<24} {'metric':<15} {'A median [q1, q3]':<36} "
             f"{'B median [q1, q3]':<36} {'B/A (base A)':<26} status"]
    for row in rows:
        ratio = f"{row['b'] / row['a']:.4f} (of {row['a']:.6g})" \
            if row["a"] else "- (base 0)"
        lines.append(f"{row['workload']:<24} {row['metric']:<15} "
                     f"{_cell(row['a'], row['a_q']):<36} "
                     f"{_cell(row['b'], row['b_q']):<36} {ratio:<26} "
                     f"{row['status']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    rows = compare(sets[0], sets[1], load_bounds())
    print(render(rows))
    regressions = [row for row in rows if row["status"] == "regression"]
    print(f"\n{len(rows)} rows, {len(regressions)} regression(s), "
          f"{sum(row['status'] == 'unresolved' for row in rows)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
