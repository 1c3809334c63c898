"""Fluid (batched) performance simulation.

Semantic MVE runs execute every request through the full server + ring
buffer + rules path — perfect for correctness, far too slow for the
paper's Memtier workloads (tens of millions of operations).  The fluid
simulator reproduces the *timing* behaviour of a deployment at batch
granularity, using exactly the same calibrated cost model and the same
lifecycle rules as the semantic runtime:

* the leader serves at ``threads / op_cost(mode)``;
* in leader-follower mode every op pushes ``entries_per_op`` ring
  entries, and a full ring stalls the leader until the follower consumes;
* the follower is unavailable while the dynamic update runs (t1..t2) and
  afterwards consumes at its replay rate;
* standalone Kitsune updates stall service for quiesce + transform;
* promotion stops service until the ring drains, then swaps roles.

Latency is reported as the paper's Memtier "maximum latency": the longest
interval an operation could have waited — the longest service stall plus
the closed-loop steady latency plus a measured-testbed tail floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import MILLISECOND, SECOND
from repro.sites import OBS
from repro.syscalls.costs import (
    AppProfile,
    ExecutionMode,
    FORK_PAUSE_NS,
    QUIESCE_NS,
)
from repro.workloads.memtier import MemtierSpec

#: Max-latency floor observed on the paper's testbed even for native runs
#: (Memtier reported 100 +- 46 ms for unmodified Redis): scheduler and
#: network tail noise that our virtual-time model does not produce.
TAIL_FLOOR_NS = 100 * MILLISECOND

#: Performing the state transform on a freshly-forked copy-on-write child
#: is slower than in place (every touched page faults): the paper's
#: footnote 11 measures 6.2 s on the follower where the in-place Kitsune
#: transform takes ~5 s.
FOLLOWER_XFORM_FACTOR = 1.24


@dataclass
class UpdatePlan:
    """Operator schedule for one dynamic update."""

    request_at: int
    promote_at: Optional[int] = None
    finalize_at: Optional[int] = None
    #: Promote the instant the update completes and drop the old version
    #: without running in outdated-leader mode (the §6.1 ablation).
    immediate_promotion: bool = False
    #: Roll the update back at this instant (a divergence/crash found
    #: during validation): the follower is dropped and the leader falls
    #: back to single-leader mode immediately.
    rollback_at: Optional[int] = None


@dataclass
class FluidConfig:
    """One deployment under load."""

    profile: AppProfile
    threads: int = 1
    spec: MemtierSpec = field(default_factory=MemtierSpec)
    ring_capacity: int = 256
    with_kitsune: bool = True
    n_bytes_per_op: int = 0
    initial_entries: int = 0
    bin_ns: int = 10 * MILLISECOND


@dataclass
class FluidResult:
    """What one run produced."""

    #: Ops served per 1-second bin (the Figure 6/7 y-axis).
    bins: List[float]
    total_ops: float
    duration_ns: int
    max_latency_ns: int
    longest_stall_ns: int
    #: Realised lifecycle instants (virtual ns).
    t1_forked: Optional[int] = None
    t2_updated: Optional[int] = None
    t3_caught_up: Optional[int] = None
    t5_promoted: Optional[int] = None
    t6_finalized: Optional[int] = None
    rolled_back_at: Optional[int] = None

    @property
    def throughput_ops_per_sec(self) -> float:
        return self.total_ops / (self.duration_ns / SECOND)


class FluidSim:
    """Run one deployment configuration under saturating Memtier load."""

    def __init__(self, config: FluidConfig,
                 fixed_mode: Optional[ExecutionMode] = None) -> None:
        self.config = config
        #: Fixed-mode runs (Table 2 rows) never change mode.
        self.fixed_mode = fixed_mode

    # -- derived rates ---------------------------------------------------------

    def _op_cost(self, mode: ExecutionMode) -> float:
        return self.config.profile.op_cost_ns(
            mode, n_bytes=self.config.n_bytes_per_op)

    def _single_mode(self) -> ExecutionMode:
        if self.fixed_mode is not None:
            return self.fixed_mode
        return (ExecutionMode.MVEDSUA_SINGLE if self.config.with_kitsune
                else ExecutionMode.VARAN_SINGLE)

    def _leader_mode(self) -> ExecutionMode:
        return (ExecutionMode.MVEDSUA_LEADER if self.config.with_kitsune
                else ExecutionMode.VARAN_LEADER)

    # -- the run ---------------------------------------------------------------

    def run(self, duration_ns: Optional[int] = None,
            plan: Optional[UpdatePlan] = None,
            kitsune_in_place: bool = False) -> FluidResult:
        """Simulate; ``plan`` adds a dynamic update to the timeline.

        ``kitsune_in_place`` performs the plan's update the standalone
        Kitsune way (service pause) instead of Mvedsua's fork.
        """
        config = self.config
        duration = (config.spec.duration_ns if duration_ns is None
                    else duration_ns)
        dt = config.bin_ns
        threads = config.threads
        ring_capacity = config.ring_capacity
        for name, value in (("duration", duration), ("bin_ns", dt),
                            ("threads", threads),
                            ("ring_capacity", ring_capacity)):
            if value <= 0:
                raise SimulationError(
                    f"fluid run {name} must be positive, got {value}")
        if SECOND % dt:
            raise SimulationError(
                f"fluid run bin_ns must divide one second, got {dt}")
        profile = config.profile
        entries_per_op = profile.entries_per_op
        write_fraction = config.spec.write_fraction
        keyspace = config.spec.keyspace
        # What a step reads is held in locals, and min/max are written as
        # the comparisons they perform: the steps that still run are the
        # ones where something changes (see the fast-forward below).

        mode = self._single_mode()
        rated_mode = None  # the mode op_cost/potential/epsilon are for
        follower = False
        follower_ready_at: Optional[int] = None
        occupancy = 0.0
        store_entries = float(config.initial_entries)
        service_blocked_until = 0
        draining_for_promotion = False
        promoted = False
        finalized = plan is None

        result = FluidResult(bins=[], total_ops=0.0, duration_ns=duration,
                             max_latency_ns=0, longest_stall_ns=0)
        #: Fluid runs are batch-granular: only lifecycle transitions are
        #: traced (the semantic stack carries the per-syscall events).
        tracer = OBS.tracer

        def mark(stage: str, at: int) -> None:
            if tracer is not None:
                tracer.emit("dsu.lifecycle", "dsu", at=at, stage=stage,
                            sim="fluid")

        follower_op_cost = profile.op_cost_ns(
            ExecutionMode.FOLLOWER, n_bytes=config.n_bytes_per_op)
        follower_entry_rate = (threads * entries_per_op
                               / follower_op_cost)  # entries per ns

        plan_instants = () if plan is None else (
            plan.request_at, plan.rollback_at, plan.promote_at,
            plan.finalize_at)
        bins_per_second = SECOND // dt
        bins = result.bins
        total_ops = 0.0
        bin_accumulator = 0.0
        bin_count = 0
        stall_ns = 0
        longest_stall = 0

        state = None  # what the last step left; None before the first
        t = 0
        while t < duration:
            # -- lifecycle transitions at bin boundaries ------------------
            if plan is not None:
                if result.t1_forked is None and t >= plan.request_at:
                    xform_ns = int(store_entries) * (
                        profile.xform_entry_ns or 0)
                    if kitsune_in_place:
                        pause = QUIESCE_NS + xform_ns
                        service_blocked_until = t + pause
                        result.t1_forked = t
                        result.t2_updated = t + pause
                        finalized = True  # no MVE stages follow
                    else:
                        result.t1_forked = t
                        service_blocked_until = t + FORK_PAUSE_NS
                        follower = True
                        follower_ready_at = t + FORK_PAUSE_NS + int(
                            xform_ns * FOLLOWER_XFORM_FACTOR)
                        result.t2_updated = follower_ready_at
                        mode = self._leader_mode()
                    mark("t1_forked", result.t1_forked)
                    mark("t2_updated", result.t2_updated)

                if (follower and plan.rollback_at is not None
                        and t >= plan.rollback_at and not promoted):
                    # Divergence discovered: terminate the follower, drop
                    # the ring, and fall back to single-leader service.
                    follower = False
                    occupancy = 0.0
                    draining_for_promotion = False
                    finalized = True
                    result.rolled_back_at = t
                    mark("rolled_back", t)
                    mode = self._single_mode()

                if (follower and plan.immediate_promotion
                        and result.t2_updated is not None
                        and t >= result.t2_updated and not promoted):
                    draining_for_promotion = True

                if (follower and not promoted
                        and plan.promote_at is not None
                        and t >= plan.promote_at):
                    draining_for_promotion = True

                if (follower and promoted
                        and plan.finalize_at is not None and not finalized
                        and t >= plan.finalize_at):
                    follower = False
                    finalized = True
                    result.t6_finalized = t
                    mark("t6_finalized", t)
                    mode = self._single_mode()

            # -- follower consumption --------------------------------------
            # The follower first works off the backlog, and any leftover
            # consumption capacity absorbs entries produced later in this
            # same bin (otherwise a small ring would serialise to one
            # ring-full per bin instead of streaming through it).
            flow_capacity = 0.0
            if follower and follower_ready_at is not None \
                    and t >= follower_ready_at:
                follower_capacity = follower_entry_rate * dt
                consumed = (follower_capacity
                            if follower_capacity < occupancy else occupancy)
                occupancy -= consumed
                flow_capacity = follower_capacity - consumed
                if occupancy <= 0 and result.t3_caught_up is None \
                        and result.t2_updated is not None:
                    result.t3_caught_up = t
                    mark("t3_caught_up", t)

            if draining_for_promotion and occupancy <= 0:
                draining_for_promotion = False
                promoted = True
                result.t5_promoted = t
                mark("t5_promoted", t)
                if plan is not None and plan.immediate_promotion:
                    follower = False
                    finalized = True
                    result.t6_finalized = t
                    mark("t6_finalized", t)
                    mode = self._single_mode()

            # -- leader service ---------------------------------------------
            if mode is not rated_mode:
                # Per-mode constants, re-derived on lifecycle transitions.
                rated_mode = mode
                op_cost = self._op_cost(mode)
                potential = dt * threads / op_cost
                epsilon = potential_epsilon(dt, op_cost, threads)
            served = 0.0
            if t >= service_blocked_until and not draining_for_promotion:
                if follower:
                    headroom = ring_capacity - occupancy + flow_capacity
                    served = (headroom if headroom > 0.0
                              else 0.0) / entries_per_op
                    if served > potential:
                        served = potential
                    produced = served * entries_per_op
                    occupancy += produced - (
                        flow_capacity if flow_capacity < produced
                        else produced)
                else:
                    served = potential

            # -- bookkeeping ---------------------------------------------------
            if served <= epsilon:
                stall_ns += dt
            else:
                if stall_ns > longest_stall:
                    longest_stall = stall_ns
                stall_ns = 0
            room = 1.0 - store_entries / keyspace
            store_entries += served * write_fraction * (
                room if room > 0.0 else 0.0)
            total_ops += served
            bin_accumulator += served
            bin_count += 1
            if bin_count == bins_per_second:
                bins.append(bin_accumulator)
                bin_accumulator = 0.0
                bin_count = 0
            t += dt

            # -- fast-forward across a fixed point -----------------------------
            # A step is a pure function of ``state`` and of which
            # thresholds ``t`` has reached.  One that left its state as it
            # found it repeats bit for bit up to the next threshold (or the
            # end): those steps are applied here at once, with the same
            # float additions, one by one, that stepping would make.  (The
            # instants t1 sets, t2 and the two below, move with t1_forked.)
            last, state = state, (occupancy, mode, follower,
                                  draining_for_promotion, promoted,
                                  finalized, result.t1_forked,
                                  result.t3_caught_up)
            if state != last:
                continue
            horizon = duration
            for at in (*plan_instants, result.t2_updated, follower_ready_at,
                       service_blocked_until):
                if at is not None and t - dt < at < horizon:
                    horizon = at
            skip = (horizon - t + dt - 1) // dt  # the steps in [t, horizon)
            if skip <= 0:
                continue
            if served <= epsilon:
                stall_ns += skip * dt
            if plan is not None and result.t1_forked is None:
                # Read only for t1's transform size, so stepped only
                # until t1, and left alone once the keyspace is full.
                grown = served * write_fraction
                for _ in range(skip):
                    room = 1.0 - store_entries / keyspace
                    if room <= 0.0:
                        break
                    store_entries += grown * room
            total_ops = reduce(add, repeat(served, skip), total_ops)
            fill = bins_per_second - bin_count
            if skip < fill:
                bin_accumulator = reduce(add, repeat(served, skip),
                                         bin_accumulator)
                bin_count += skip
            else:
                bins.append(reduce(add, repeat(served, fill),
                                   bin_accumulator))
                full, bin_count = divmod(skip - fill, bins_per_second)
                if full:
                    bins.extend([reduce(add, repeat(served, bins_per_second),
                                        0.0)] * full)
                bin_accumulator = reduce(add, repeat(served, bin_count), 0.0)
            t += skip * dt

        result.total_ops = total_ops
        if bin_count:
            bins.append(bin_accumulator * bins_per_second / bin_count)
        longest_stall = max(longest_stall, stall_ns)
        result.longest_stall_ns = longest_stall
        steady_latency = int(config.spec.connections
                             * self._op_cost(self._single_mode())
                             / threads)
        result.max_latency_ns = (longest_stall + steady_latency
                                 + TAIL_FLOOR_NS)
        return result


def potential_epsilon(dt: int, op_cost: float, threads: int) -> float:
    """Service below 5% of nominal counts as a stall for latency purposes."""
    return 0.05 * dt * threads / op_cost


def steady_state_throughput(profile: AppProfile, mode: ExecutionMode, *,
                            threads: int = 1, n_bytes: int = 0,
                            duration_ns: int = 10 * SECOND) -> float:
    """Table 2 helper: ops/sec of one fixed-mode deployment."""
    config = FluidConfig(profile=profile, threads=threads,
                         n_bytes_per_op=n_bytes,
                         spec=MemtierSpec(duration_ns=duration_ns))
    result = FluidSim(config, fixed_mode=mode).run(duration_ns)
    return result.throughput_ops_per_sec


def mode_throughputs(profile: AppProfile, *, threads: int = 1,
                     n_bytes: int = 0) -> List[Tuple[str, float, float]]:
    """All six Table 2 rows: (label, ops/sec, overhead-vs-native)."""
    rows = []
    native = steady_state_throughput(profile, ExecutionMode.NATIVE,
                                     threads=threads, n_bytes=n_bytes)
    for mode in (ExecutionMode.NATIVE, ExecutionMode.KITSUNE,
                 ExecutionMode.VARAN_SINGLE, ExecutionMode.MVEDSUA_SINGLE,
                 ExecutionMode.VARAN_LEADER, ExecutionMode.MVEDSUA_LEADER):
        ops = steady_state_throughput(profile, mode, threads=threads,
                                      n_bytes=n_bytes)
        rows.append((mode.value, ops, 1.0 - ops / native))
    return rows
