"""Figure 7 — updating Redis with a large state, vs ring-buffer size.

The store is pre-filled with 1M entries (~250 MB resident in the paper's
setup) and updated at 120 s into the run.  The pause each configuration
introduces is measured as the maximum request latency:

* Kitsune pauses for the full in-place state transform (~5 s);
* Mvedsua with a small ring (2^10 entries) is *worse*: the leader blocks
  on the full buffer almost immediately and stays blocked through the
  update;
* 2^20 blocks later and for less time;
* 2^24 absorbs the whole update: the pause collapses to the fork cost;
* the §6.1 ablation promotes the updated version immediately instead of
  draining in outdated-leader mode, re-introducing seconds of pause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench import claims
from repro.bench.fluid import FluidConfig, FluidResult, FluidSim, UpdatePlan
from repro.bench.reporting import format_ms, format_table, sparkline
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.workloads.memtier import MemtierSpec

STORE_ENTRIES = 1_000_000
UPDATE_AT = 120 * SECOND
DURATION = 360 * SECOND


@dataclass
class Fig7Row:
    """One configuration's outcome."""

    label: str
    result: FluidResult

    @property
    def max_latency_ms(self) -> float:
        return self.result.max_latency_ns / 1e6


def _config(ring_capacity: int = 256) -> FluidConfig:
    return FluidConfig(profile=PROFILES["redis"],
                       ring_capacity=ring_capacity,
                       initial_entries=STORE_ENTRIES,
                       spec=MemtierSpec(duration_ns=DURATION))


def _plan(immediate: bool = False) -> UpdatePlan:
    return UpdatePlan(request_at=UPDATE_AT,
                      promote_at=180 * SECOND,
                      finalize_at=240 * SECOND,
                      immediate_promotion=immediate)


def run_fig7() -> List[Fig7Row]:
    """All six configurations."""
    rows = [
        Fig7Row("native", FluidSim(_config()).run()),
        Fig7Row("kitsune",
                FluidSim(_config()).run(plan=_plan(),
                                        kitsune_in_place=True)),
    ]
    for power in (10, 20, 24):
        rows.append(Fig7Row(
            f"mvedsua-2^{power}",
            FluidSim(_config(1 << power)).run(plan=_plan())))
    rows.append(Fig7Row(
        "immediate-promotion",
        FluidSim(_config(1 << 24)).run(plan=_plan(immediate=True))))
    return rows


def check_shape(rows: List[Fig7Row]) -> List[str]:
    """The ledger's Figure 7 claims that ``rows`` do not support, by
    id: the magnitudes and every ordering the figure establishes."""
    return [claim.id for claim, _, holds in claims.measure(
        claims.Results(fig7=rows), ("fig7.",)) if not holds]


def render(rows: List[Fig7Row]) -> str:
    lines = [format_table(
        ["configuration", "max latency", "paper", "update on follower"],
        [[row.label,
          format_ms(row.result.max_latency_ns),
          f"{claims.PAPER[f'fig7.{row.label}']:,} ms",
          format_ms(row.result.t2_updated - row.result.t1_forked
                    if row.result.t2_updated is not None
                    and row.result.t1_forked is not None else None)]
         for row in rows])]
    lines.append("")
    for row in rows:
        window = row.result.bins[110:150]
        lines.append(f"{row.label:22s} 110-150s: {sparkline(window, 40)}")
    failures = check_shape(rows)
    lines.append("")
    lines.append("shape check: " + ("ok" if not failures
                                    else "; ".join(failures)))
    return "\n".join(lines)


def main() -> None:
    print("Figure 7: updating Redis with a 1M-entry store, by buffer size")
    print(render(run_fig7()))
