"""Deterministic gauges of the MVE hot path, and the gate that pins them.

The paper's evaluation lives and dies by the cost of the interposition
hot path: the leader records syscalls, the ring buffer carries them, the
rewrite-rule engine transforms them, and the follower replays them.
``python -m repro perf`` runs the six ``perf`` rows of
:data:`repro.scenarios.SCENARIOS` (single leader, leader+follower, a
rule-heavy Redis update, a Figure-7-style ring sweep) and reports what
each does in *virtual* time: requests, syscalls, ring high-watermark,
stalls, exact latency percentiles.
``--json`` writes them as ``BENCH_perf.json`` (``repro-perf/5``) and
``--diff`` holds a run to the committed file exactly; see
``docs/performance.md``.  How fast the simulator runs on real hardware
is measured by ``hostbench/``, and only there.
"""

from repro.perf.diff import diff_bench
from repro.perf.harness import run_scenarios, validate_bench

__all__ = [
    "diff_bench",
    "run_scenarios",
    "validate_bench",
]
