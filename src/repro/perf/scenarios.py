"""The configurations ``python -m repro perf`` gauges.

Each scenario builds one hot-path configuration of the MVE stack,
serves ``ops`` requests through it back to back, and returns the run's
gauges: requests served, syscalls the leader issued, the ring's peak
occupancy, how often a full ring stalled the leader, and the exact
virtual-time request-latency percentiles.  All of it is virtual-time
arithmetic — same ops, same numbers, on any machine — which is what
lets ``--diff`` compare a run against ``BENCH_perf.json`` exactly.
How long the simulator takes on the host is ``hostbench/``'s question.

A configuration belongs here only while no golden and no tier-1
assertion already pins its gauges:

* ``single-leader`` — Redis steady state, no follower: the paper's
  common case, where interposition must be nearly free.
* ``mve-follower`` — plain Varan leader + identical follower: the full
  publish/replay path with no rewrite rules.
* ``rule-heavy-mve-redis`` — a Redis 2.0.0 -> 2.0.1 update held in
  outdated-leader mode with a large rule catalogue registered; every
  leader record crosses the rule engine on its way to the follower.
* ``fig7-ring-2^N`` — leader + follower under a small/medium/large ring,
  interleaving publish and back-pressure replay like Figure 7 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

from repro.apps import Stack, deploy
from repro.mve import VaranRuntime
from repro.mve.dsl.rules import (
    Direction,
    RewriteRule,
    RuleSet,
    SyscallPattern,
)
from repro.obs.slo import summarize_latencies
from repro.syscalls.model import Sys, SyscallRecord
from repro.workloads.memtier import MemtierSpec

#: Every scenario reports exactly these, in table order.
GAUGES = ("vrequests", "syscalls", "ring_high_watermark", "ring_stalls",
          "latency_p50_ns", "latency_p99_ns", "latency_p999_ns")


@dataclass(frozen=True)
class Scenario:
    """One named hot-path configuration."""

    name: str
    description: str
    #: ops -> the run's :data:`GAUGES`.
    run: Callable[[int], Dict[str, int]]
    #: Default operation count (``--quick`` divides by 5).
    default_ops: int


# ---------------------------------------------------------------------------
# The padded rule catalogue
# ---------------------------------------------------------------------------

#: Syscalls a realistic filesystem/session rule catalogue spreads over.
_CATALOG_SYSCALLS = (Sys.OPEN, Sys.UNLINK, Sys.RENAME, Sys.STAT, Sys.MKDIR,
                     Sys.RMDIR, Sys.CONNECT, Sys.LISTEN, Sys.ACCEPT,
                     Sys.CLOSE, Sys.READ, Sys.WRITE)


def _identity_action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
    return list(matched)


def rule_heavy_catalog(base: RuleSet) -> RuleSet:
    """A large rule catalogue in the shape real deployments accumulate.

    Starts from ``base`` (the genuine Redis 2.0.0 -> 2.0.1 rules) and
    pads with 120 guarded single-record rules spread across the syscall
    vocabulary — banner rewrites, path renames, session tweaks — whose
    predicates never fire for the scenario's stream.  This mirrors the
    paper's observation that the overwhelming majority of records match
    no rule: the engine's job is to get out of the way.
    """
    rules = RuleSet()
    for rule in base.rules:
        rules.add(rule)
    for index in range(120):
        sysname = _CATALOG_SYSCALLS[index % len(_CATALOG_SYSCALLS)]
        token = f"#pad-{sysname.value}-{index}".encode()
        rules.add(RewriteRule(
            f"pad_{sysname.value}_{index}",
            [SyscallPattern(sysname,
                            predicate=lambda d, t=token: d.startswith(t))],
            _identity_action,
            direction=Direction.BOTH))
    return rules


# ---------------------------------------------------------------------------
# The configurations
# ---------------------------------------------------------------------------

def _serve(stack: Stack, commands: List[bytes]) -> Dict[str, int]:
    """Serve ``commands`` back to back, let every follower catch up, and
    read the gauges off the always-on counters (no tracer installed)."""
    runtime, client = stack.runtime, stack.client()
    now = 0
    for command in commands:
        _, now = client.request(runtime, command, now + 1)
    varan = getattr(runtime, "runtime", runtime)  # Mvedsua wraps VaranRuntime
    varan.drain_follower()
    gauges = {"vrequests": len(commands),
              "syscalls": varan.total_syscalls,
              "ring_high_watermark": varan.ring.high_watermark,
              "ring_stalls": varan.ring_stalls}
    gauges.update(summarize_latencies(client.latencies_ns))
    return gauges


def _memtier(seed: int, ops: int) -> List[bytes]:
    return list(MemtierSpec().commands(ops, protocol="redis", seed=seed))


def run_single_leader(ops: int) -> Dict[str, int]:
    stack = deploy("redis", "2.0.0", VaranRuntime, ring_capacity=1 << 14)
    return _serve(stack, _memtier(11, ops))


def run_mve_follower(ops: int) -> Dict[str, int]:
    stack = deploy("redis", "2.0.0", VaranRuntime, ring_capacity=1 << 14)
    stack.runtime.fork_follower(0)
    return _serve(stack, _memtier(12, ops))


def run_rule_heavy_mve_redis(ops: int) -> Dict[str, int]:
    stack = deploy("redis", "2.0.0", ring_capacity=1 << 14)
    catalog = rule_heavy_catalog(stack.app.rules_for("2.0.0", "2.0.1"))
    attempt = stack.update("2.0.1", 10**9, rules=catalog)
    if not attempt.ok:  # pragma: no cover - setup invariant
        raise RuntimeError(f"update failed: {attempt.reason}")
    return _serve(stack, _memtier(13, ops))


def run_ring_sweep(capacity: int, ops: int) -> Dict[str, int]:
    stack = deploy("kvstore", "1.0", VaranRuntime, ring_capacity=capacity)
    stack.runtime.fork_follower(0)
    commands = [b"PUT k%d v%d\r\n" % (i % 512, i) for i in range(ops)]
    return _serve(stack, commands)


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("single-leader",
             "Redis steady state, no follower (interception only)",
             run_single_leader, default_ops=2000),
    Scenario("mve-follower",
             "Varan leader + identical follower, no rules",
             run_mve_follower, default_ops=1500),
    Scenario("rule-heavy-mve-redis",
             "Redis 2.0.0->2.0.1 outdated-leader stage, 120-rule catalogue",
             run_rule_heavy_mve_redis, default_ops=1500),
    Scenario("fig7-ring-2^5",
             "leader+follower through a 32-entry ring (heavy back-pressure)",
             partial(run_ring_sweep, 1 << 5), default_ops=1500),
    Scenario("fig7-ring-2^8",
             "leader+follower through a 256-entry ring",
             partial(run_ring_sweep, 1 << 8), default_ops=1500),
    Scenario("fig7-ring-2^11",
             "leader+follower through a 2048-entry ring",
             partial(run_ring_sweep, 1 << 11), default_ops=1500),
)}
