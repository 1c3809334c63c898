"""Figure 6 — throughput while updating Memcached and Redis.

A 6-minute Memtier run against a Mvedsua deployment: the update is
requested at 120 s, the new version promoted at 180 s, and the old
version terminated at 240 s.  The series shows the two MVE transitions
(throughput drops to Mvedsua-2 level between 120 s and 240 s) and that
service never stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.fluid import FluidConfig, FluidResult, FluidSim, UpdatePlan
from repro.bench.reporting import format_table, sparkline
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads.memtier import MemtierSpec

#: The paper's schedule.
UPDATE_AT = 120 * SECOND
PROMOTE_AT = 180 * SECOND
FINALIZE_AT = 240 * SECOND
DURATION = 360 * SECOND


@dataclass
class Fig6Series:
    """One application's timeline."""

    app: str
    result: FluidResult

    def phase_mean(self, start_s: int, end_s: int) -> float:
        """Mean ops/sec over [start_s, end_s) of the run."""
        window = self.result.bins[start_s:end_s]
        return sum(window) / max(1, len(window))

    def summary(self) -> Dict[str, float]:
        return {
            "single-leader (0-120s)": self.phase_mean(5, 115),
            "mve (125-235s)": self.phase_mean(125, 235),
            "single-leader (245-360s)": self.phase_mean(245, 355),
            "min-bin": min(self.result.bins),
        }


def run_fig6() -> List[Fig6Series]:
    """Both applications through the full update timeline."""
    series = []
    for app, threads in (("memcached", 4), ("redis", 1)):
        config = FluidConfig(profile=PROFILES[app], threads=threads,
                             spec=MemtierSpec(duration_ns=DURATION))
        plan = UpdatePlan(request_at=UPDATE_AT, promote_at=PROMOTE_AT,
                          finalize_at=FINALIZE_AT)
        series.append(Fig6Series(app, FluidSim(config).run(plan=plan)))
    return series


def render(series: List[Fig6Series]) -> str:
    lines = []
    for item in series:
        lines.append(f"{item.app}: ops/sec over 360 s "
                     f"(update @120s, promote @180s, finalize @240s)")
        lines.append("  " + sparkline(item.result.bins))
        summary = item.summary()
        lines.append(format_table(
            ["phase", "mean ops/s"],
            [[name, round(value)] for name, value in summary.items()]))
        drop = 1 - (summary["mve (125-235s)"]
                    / summary["single-leader (0-120s)"])
        never_stopped = summary["min-bin"] > 0
        lines.append(f"  MVE-phase throughput drop: {drop:.0%}; "
                     f"service never stopped: "
                     f"{'yes' if never_stopped else 'NO'}")
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    print("Figure 6: performance while updating Memcached and Redis")
    print(render(run_fig6()))
