"""Wall-clock performance harness for the MVE simulator.

The paper's evaluation lives and dies by the cost of the interposition
hot path: the leader records syscalls, the ring buffer carries them, the
rewrite-rule engine transforms them, and the follower replays them.  The
rest of the repository measures *virtual* time — this package measures
how fast the simulator itself runs on real hardware, so every PR can be
held to a wall-clock trajectory.

``python -m repro perf`` runs parameterized scenarios (single-leader
steady state, MVE leader+follower, rule-heavy redis/vsftpd streams, a
Figure-7-style ring sweep) and reports virtual requests simulated per
wall-clock second.  ``--json`` writes ``BENCH_perf.json`` with the
schema ``scenario -> {wall_s, vreq_per_s, syscalls_per_s}``; see
``docs/performance.md``.
"""

from repro.perf.diff import diff_bench
from repro.perf.harness import BenchResult, run_scenarios, validate_bench
from repro.perf.scenarios import SCENARIOS, Scenario, rule_heavy_catalog

__all__ = [
    "BenchResult",
    "SCENARIOS",
    "Scenario",
    "diff_bench",
    "rule_heavy_catalog",
    "run_scenarios",
    "validate_bench",
]
