"""Table 2 — steady-state performance and overhead.

Six execution modes (Native, Kitsune, Varan-1, Mvedsua-1, Varan-2,
Mvedsua-2) across four workloads (Memcached, Redis, Vsftpd small,
Vsftpd large), measured as sustained throughput of the fluid simulation
under saturating load.  Overheads are throughput drops vs Native, the
paper's convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench import claims
from repro.bench.fluid import steady_state_throughput
from repro.bench.reporting import format_percent, format_table
from repro.syscalls.costs import PROFILES, ExecutionMode

#: Workload parameters: (threads, bytes per op).
WORKLOADS = {
    "memcached": (4, 0),
    "redis": (1, 0),
    "vsftpd-small": (1, 0),
    "vsftpd-large": (1, 10 * 1024 * 1024),
}

MODES = (ExecutionMode.NATIVE, ExecutionMode.KITSUNE,
         ExecutionMode.VARAN_SINGLE, ExecutionMode.MVEDSUA_SINGLE,
         ExecutionMode.VARAN_LEADER, ExecutionMode.MVEDSUA_LEADER)


@dataclass
class Table2Cell:
    """One (workload, mode) measurement."""

    app: str
    mode: str
    ops_per_sec: float
    overhead: float


def run_table2() -> List[Table2Cell]:
    """Measure all 24 cells."""
    cells = []
    for app, (threads, n_bytes) in WORKLOADS.items():
        profile = PROFILES[app]
        native = steady_state_throughput(profile, ExecutionMode.NATIVE,
                                         threads=threads, n_bytes=n_bytes)
        for mode in MODES:
            ops = steady_state_throughput(profile, mode, threads=threads,
                                          n_bytes=n_bytes)
            cells.append(Table2Cell(app, mode.value, ops,
                                    1.0 - ops / native))
    return cells


def render(cells: List[Table2Cell]) -> str:
    """Paper-style rows: one line per mode, one column pair per app."""
    apps = list(WORKLOADS)
    header = ["Version"]
    for app in apps:
        header += [f"{app} ops/s", "ovh", "paper"]
    rows = []
    for mode in MODES:
        row: List[object] = [mode.value]
        for app in apps:
            cell = next(c for c in cells
                        if c.app == app and c.mode == mode.value)
            row.append(round(cell.ops_per_sec))
            row += ["-", "-"] if mode is ExecutionMode.NATIVE else [
                format_percent(cell.overhead),
                format_percent(claims.PAPER[f"table2.{app}.{mode.value}"])]
        rows.append(row)
    return format_table(header, rows)


def main() -> None:
    print("Table 2: steady-state performance and overhead "
          "(overhead = throughput drop vs native)")
    print(render(run_table2()))
