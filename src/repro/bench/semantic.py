"""Semantic workload runs: the full MVE stack under Memtier-style load.

The fluid simulator (``repro.bench.fluid``) reproduces the paper's
numbers at Memtier scale; this module runs the *semantic* stack — real
servers, real ring buffer, real rules — under scaled-down versions of
the same workloads, both to cross-validate the fluid model (the measured
virtual-time overheads must agree) and to double-check that long mixed
workloads stay divergence-free through a full update lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps import deploy
from repro.core import Stage
from repro.sim.engine import SECOND
from repro.workloads.memtier import MemtierSpec


@dataclass
class PhaseMeasurement:
    """Virtual-time throughput over one lifecycle phase."""

    phase: str
    requests: int
    busy_ns: int

    @property
    def ops_per_sec(self) -> float:
        if self.busy_ns == 0:
            return 0.0
        return self.requests * SECOND / self.busy_ns


@dataclass
class SemanticRunResult:
    """Outcome of one semantic lifecycle run."""

    phases: List[PhaseMeasurement]
    diverged: bool
    final_version: str
    update_succeeded: bool

    def phase(self, name: str) -> PhaseMeasurement:
        return next(p for p in self.phases if p.phase == name)


def run_semantic_redis_lifecycle(
        ops_per_phase: int = 400) -> SemanticRunResult:
    """Drive Redis through single-leader -> MVE -> single-leader.

    Measures each phase's virtual CPU time on the serving leader, which
    is the semantic-stack equivalent of the fluid model's throughput.
    """
    stack = deploy("redis", "2.0.0", ring_capacity=1 << 14)
    mvedsua = stack.runtime
    client = stack.client()
    spec = MemtierSpec()

    def run_phase(name: str, start_ns: int) -> PhaseMeasurement:
        leader_cpu = mvedsua.runtime.leader.cpu
        busy_before = leader_cpu.total_busy
        now = max(start_ns, leader_cpu.busy_until)
        for command in spec.commands(ops_per_phase, protocol="redis",
                                     seed=0):
            _, now = client.request(mvedsua, command, now)
        return PhaseMeasurement(name, ops_per_phase,
                                leader_cpu.total_busy - busy_before)

    phases = [run_phase("single-before", SECOND)]
    attempt = stack.update("2.0.1", 100 * SECOND)
    phases.append(run_phase("outdated-leader", 101 * SECOND))
    if mvedsua.stage is Stage.OUTDATED_LEADER:
        mvedsua.promote(200 * SECOND)
        phases.append(run_phase("updated-leader", 201 * SECOND))
        mvedsua.finalize(300 * SECOND)
    phases.append(run_phase("single-after", 301 * SECOND))
    return SemanticRunResult(
        phases=phases,
        diverged=mvedsua.runtime.last_divergence is not None,
        final_version=mvedsua.current_version,
        update_succeeded=attempt.ok and mvedsua.current_version == "2.0.1")
