"""Tests for the fluid performance simulator."""

import gc
import hashlib
import inspect
import sys
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import fig6, fig7, table2
from repro.bench.fluid import (
    FOLLOWER_XFORM_FACTOR,
    FluidConfig,
    FluidResult,
    FluidSim,
    TAIL_FLOOR_NS,
    UpdatePlan,
    mode_throughputs,
    potential_epsilon,
    steady_state_throughput,
)
from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.sim.engine import MILLISECOND, SECOND
from repro.sites import OBS, observing
from repro.syscalls.costs import (
    FORK_PAUSE_NS,
    PROFILES,
    QUIESCE_NS,
    ExecutionMode,
)
from repro.workloads.memtier import MemtierSpec


def redis_config(**kwargs):
    defaults = dict(profile=PROFILES["redis"],
                    spec=MemtierSpec(duration_ns=30 * SECOND))
    defaults.update(kwargs)
    return FluidConfig(**defaults)


def plan(request_s=10, promote_s=18, finalize_s=24, immediate=False):
    return UpdatePlan(request_at=request_s * SECOND,
                      promote_at=promote_s * SECOND,
                      finalize_at=finalize_s * SECOND,
                      immediate_promotion=immediate)


class TestSteadyState:
    def test_native_throughput_matches_cost_model(self):
        ops = steady_state_throughput(PROFILES["redis"],
                                      ExecutionMode.NATIVE)
        assert ops == pytest.approx(73_000, rel=0.02)

    def test_threads_scale_throughput(self):
        one = steady_state_throughput(PROFILES["memcached"],
                                      ExecutionMode.NATIVE, threads=1)
        four = steady_state_throughput(PROFILES["memcached"],
                                       ExecutionMode.NATIVE, threads=4)
        assert four == pytest.approx(4 * one, rel=0.01)

    def test_bytes_slow_large_transfers(self):
        small = steady_state_throughput(PROFILES["vsftpd-large"],
                                        ExecutionMode.NATIVE, n_bytes=0)
        large = steady_state_throughput(PROFILES["vsftpd-large"],
                                        ExecutionMode.NATIVE,
                                        n_bytes=10 * 1024 * 1024)
        assert large < small / 5

    def test_mode_throughputs_monotone(self):
        rows = dict((label, ops) for label, ops, _ in
                    mode_throughputs(PROFILES["redis"]))
        assert rows["native"] >= rows["mvedsua-1"] > rows["mvedsua-2"]

    def test_no_update_run_has_floor_latency(self):
        result = FluidSim(redis_config()).run()
        assert result.longest_stall_ns == 0
        assert result.max_latency_ns >= TAIL_FLOOR_NS
        assert result.max_latency_ns < TAIL_FLOOR_NS + 10 * MILLISECOND


class TestBins:
    def test_one_bin_per_second(self):
        result = FluidSim(redis_config()).run()
        assert len(result.bins) == 30

    def test_total_matches_bins(self):
        result = FluidSim(redis_config()).run()
        assert result.total_ops == pytest.approx(sum(result.bins))

    def test_fixed_mode_bins_are_flat(self):
        result = FluidSim(redis_config(),
                          fixed_mode=ExecutionMode.NATIVE).run()
        assert max(result.bins) - min(result.bins) < 0.01 * max(result.bins)


class TestMvedsuaUpdateTimeline:
    def test_lifecycle_instants_recorded_in_order(self):
        config = redis_config(initial_entries=100_000,
                              ring_capacity=1 << 24)
        result = FluidSim(config).run(plan=plan())
        assert result.t1_forked == 10 * SECOND
        assert result.t2_updated > result.t1_forked
        assert result.t3_caught_up >= result.t2_updated
        assert result.t5_promoted >= 18 * SECOND
        assert result.t6_finalized >= 24 * SECOND

    def test_update_duration_scales_with_store(self):
        # Note: the store also grows with pre-update traffic (bounded by
        # the Memtier keyspace), so compare empty vs far-above-keyspace.
        small = FluidSim(redis_config(initial_entries=0,
                                      ring_capacity=1 << 24)
                         ).run(plan=plan())
        large = FluidSim(redis_config(initial_entries=2_000_000,
                                      ring_capacity=1 << 24)
                         ).run(plan=plan())
        assert (large.t2_updated - large.t1_forked) > \
            10 * (small.t2_updated - small.t1_forked)

    def test_throughput_recovers_after_finalize(self):
        config = redis_config(ring_capacity=1 << 24)
        result = FluidSim(config).run(plan=plan())
        assert result.bins[28] == pytest.approx(result.bins[5], rel=0.02)

    def test_mve_phase_is_slower(self):
        config = redis_config(ring_capacity=1 << 24)
        result = FluidSim(config).run(plan=plan())
        single_phase = result.bins[5]
        mve_phase = result.bins[14]
        assert 0.20 < 1 - mve_phase / single_phase < 0.55


class TestRingBufferDynamics:
    def test_small_ring_blocks_leader_through_update(self):
        config = redis_config(initial_entries=1_000_000,
                              ring_capacity=1 << 10,
                              spec=MemtierSpec(duration_ns=60 * SECOND))
        result = FluidSim(config).run(plan=plan(request_s=10,
                                                promote_s=40,
                                                finalize_s=50))
        update_duration = result.t2_updated - result.t1_forked
        # The stall is essentially the whole update.
        assert result.longest_stall_ns > 0.9 * update_duration

    def test_huge_ring_masks_the_update(self):
        config = redis_config(initial_entries=1_000_000,
                              ring_capacity=1 << 24,
                              spec=MemtierSpec(duration_ns=60 * SECOND))
        result = FluidSim(config).run(plan=plan(request_s=10,
                                                promote_s=40,
                                                finalize_s=50))
        # Only the fork pause shows up.
        assert result.longest_stall_ns <= 2 * FORK_PAUSE_NS

    def test_pause_decreases_with_ring_size(self):
        latencies = []
        for power in (10, 16, 20, 24):
            config = redis_config(initial_entries=1_000_000,
                                  ring_capacity=1 << power,
                                  spec=MemtierSpec(duration_ns=60 * SECOND))
            result = FluidSim(config).run(plan=plan(request_s=10,
                                                    promote_s=40,
                                                    finalize_s=50))
            latencies.append(result.max_latency_ns)
        assert latencies == sorted(latencies, reverse=True)

    def test_kitsune_pause_equals_quiesce_plus_transform(self):
        config = redis_config(initial_entries=1_000_000,
                              spec=MemtierSpec(duration_ns=60 * SECOND))
        result = FluidSim(config).run(
            plan=plan(request_s=10), kitsune_in_place=True)
        xform = 1_000_000 * PROFILES["redis"].xform_entry_ns
        assert result.longest_stall_ns == pytest.approx(xform, rel=0.02)


class TestImmediatePromotionAblation:
    def test_immediate_promotion_reintroduces_pause(self):
        config = redis_config(initial_entries=1_000_000,
                              ring_capacity=1 << 24,
                              spec=MemtierSpec(duration_ns=60 * SECOND))
        staged = FluidSim(config).run(plan=plan(request_s=10, promote_s=40,
                                                finalize_s=50))
        rushed = FluidSim(config).run(plan=plan(request_s=10,
                                                immediate=True))
        assert rushed.max_latency_ns > 10 * staged.max_latency_ns
        assert rushed.t6_finalized is not None


class TestRollbackTimeline:
    def test_rollback_restores_single_leader_rate(self):
        config = redis_config(ring_capacity=1 << 24,
                              spec=MemtierSpec(duration_ns=30 * SECOND))
        rollback_plan = UpdatePlan(request_at=10 * SECOND,
                                   rollback_at=15 * SECOND)
        result = FluidSim(config).run(plan=rollback_plan)
        assert result.rolled_back_at == 15 * SECOND
        assert result.t5_promoted is None
        # MVE-rate during validation, full rate again after rollback.
        single_rate = result.bins[5]
        mve_rate = result.bins[12]
        post_rollback = result.bins[20]
        assert mve_rate < 0.8 * single_rate
        assert post_rollback == pytest.approx(single_rate, rel=0.02)

    def test_rollback_never_pauses_service(self):
        config = redis_config(ring_capacity=1 << 24,
                              spec=MemtierSpec(duration_ns=30 * SECOND))
        rollback_plan = UpdatePlan(request_at=10 * SECOND,
                                   rollback_at=15 * SECOND)
        result = FluidSim(config).run(plan=rollback_plan)
        assert min(result.bins) > 0
        assert result.max_latency_ns < TAIL_FLOOR_NS + 100 * MILLISECOND


# ---------------------------------------------------------------------------
# Bit-identity pins and the per-step call budget
# ---------------------------------------------------------------------------

INSTANTS = ("t1_forked", "t2_updated", "t3_caught_up", "t5_promoted",
            "t6_finalized", "rolled_back_at")


def fingerprint(result):
    """Every float bit and every instant of one ``FluidResult``."""
    return (float.hex(result.total_ops),
            hashlib.sha256(repr(result.bins).encode()).hexdigest()[:16],
            result.longest_stall_ns, result.max_latency_ns,
            tuple(getattr(result, name) for name in INSTANTS))


def pinned_runs():
    """label -> ``FluidResult`` of the runs the goldens are rendered
    from, plus one rollback and one fixed-mode run."""
    runs = {f"fig7.{row.label}": row.result for row in fig7.run_fig7()}
    runs.update((f"fig6.{series.app}", series.result)
                for series in fig6.run_fig6())
    runs["rollback"] = FluidSim(
        redis_config(ring_capacity=1 << 24)).run(
            plan=UpdatePlan(request_at=10 * SECOND,
                            rollback_at=15 * SECOND))
    runs["table2.memcached-4.varan-2"] = FluidSim(
        FluidConfig(profile=PROFILES["memcached"], threads=4,
                    spec=MemtierSpec(duration_ns=10 * SECOND)),
        fixed_mode=ExecutionMode.VARAN_LEADER).run(10 * SECOND)
    return runs


#: Taken at the parent of the PR that made the step loop call-free
#: (PR 23); the loop may get cheaper, these may not move.
PINS = {
    "fig7.native": (
        "0x1.70dde52ed4827p+24", "cfbb1ec8b39a0ea1", 0, 100_744_600,
        (None, None, None, None, None, None)),
    "fig7.kitsune": (
        "0x1.6bbbbef15b5e2p+24", "3f5976bce7b29f05",
        5_010_000_000, 5_110_744_600,
        (120_000_000_000, 125_002_000_000, None, None, None, None)),
    "fig7.mvedsua-2^10": (
        "0x1.3ce13c6b74744p+24", "c2e75c7540e1e56e",
        6_190_000_000, 6_290_744_600,
        (120_000_000_000, 126_215_000_000, 126_220_000_000,
         180_000_000_000, 240_000_000_000, None)),
    "fig7.mvedsua-2^20": (
        "0x1.3e363c6b74771p+24", "d769f52a49bf10ad",
        4_060_000_000, 4_160_744_600,
        (120_000_000_000, 126_215_000_000, 128_390_000_000,
         180_000_000_000, 240_000_000_000, None)),
    "fig7.mvedsua-2^24": (
        "0x1.40bee0b402051p+24", "86f4002fc6c0fbc1", 20_000_000, 120_744_600,
        (120_000_000_000, 126_215_000_000, 132_540_000_000,
         180_000_000_000, 240_000_000_000, None)),
    "fig7.immediate-promotion": (
        "0x1.6b2750eb1bd72p+24", "67c988047db4924f",
        3_130_000_000, 3_230_744_600,
        (120_000_000_000, 126_215_000_000, 129_350_000_000,
         129_350_000_000, 129_350_000_000, None)),
    "fig6.memcached": (
        "0x1.082a3c448f64cp+26", "d942d515a05f5833", 640_000_000, 740_219_725,
        (120_000_000_000, 120_634_993_800, 120_640_000_000,
         180_000_000_000, 240_000_000_000, None)),
    "fig6.redis": (
        "0x1.405bf6acc0a9dp+24", "457bdda5ea7d7ab4", 610_000_000, 710_744_600,
        (120_000_000_000, 120_634_801_600, 120_640_000_000,
         180_000_000_000, 240_000_000_000, None)),
    "rollback": (
        "0x1.cb8ce1d4c7d74p+20", "80a695e2adbb7e66", 20_000_000, 120_744_600,
        (10_000_000_000, 10_318_285_400, 10_610_000_000,
         None, None, 15_000_000_000)),
    "table2.memcached-4.varan-2": (
        "0x1.2fe7373d9d2a1p+20", "42b4a16b5c19654c", 0, 100_401_675,
        (None, None, None, None, None, None)),
}


def test_every_float_bit_and_instant_is_pinned():
    measured = {label: fingerprint(result)
                for label, result in pinned_runs().items()}
    assert measured == PINS


#: Python frames plus C calls per nominal step of the Figure 7
#: ``mvedsua-2^10`` run: 3.31 before PR 23 (``min``/``max``, and
#: ``list.append`` once a second), 0.011 after (the appends), 0.0019
#: since the loop fast-forwards across fixed points.
CALLS_PER_STEP_CEILING = 0.005


def calls_per_step():
    sim = FluidSim(fig7._config(1 << 10))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = sim.run(plan=fig7._plan())
    finally:
        sys.setprofile(None)
        gc.enable()
    assert fingerprint(result) == PINS["fig7.mvedsua-2^10"]
    return calls / (result.duration_ns // sim.config.bin_ns)


def test_the_step_loop_stays_inside_its_call_budget():
    measured = calls_per_step()
    assert measured <= CALLS_PER_STEP_CEILING
    assert calls_per_step() == measured  # exact, run for run


# ---------------------------------------------------------------------------
# The fast-forward against plain stepping
# ---------------------------------------------------------------------------

def reference_run(sim, duration_ns=None, plan=None,
                  kitsune_in_place=False):
    """``sim.run(duration_ns, plan, kitsune_in_place)`` stepped the
    way ``FluidSim.run`` stepped before its fast-forward, every
    ``bin_ns`` step executed: the loop kept verbatim as the oracle the
    fast-forward is held to (as ``tests/reference_rules.py`` keeps the
    rule builders the DSL replaced)."""
    config = sim.config
    duration = duration_ns or config.spec.duration_ns
    dt = config.bin_ns
    profile = config.profile
    entries_per_op = profile.entries_per_op
    write_fraction = config.spec.write_fraction
    keyspace = config.spec.keyspace
    # The step loop runs 36 000 times per Figure 6/7 run: what it
    # reads every step is held in locals, and min/max are written
    # as the comparisons they perform.
    threads = config.threads
    ring_capacity = config.ring_capacity

    mode = sim._single_mode()
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

    bins_per_second = SECOND // dt
    bins = result.bins
    total_ops = 0.0
    bin_accumulator = 0.0
    bin_count = 0
    stall_ns = 0
    longest_stall = 0

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
                    mode = sim._leader_mode()
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
                mode = sim._single_mode()

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
                mode = sim._single_mode()

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
                mode = sim._single_mode()

        # -- leader service ---------------------------------------------
        if mode is not rated_mode:
            # Per-mode constants, re-derived on lifecycle transitions.
            rated_mode = mode
            op_cost = sim._op_cost(mode)
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

    result.total_ops = total_ops
    if bin_count:
        bins.append(bin_accumulator * bins_per_second / bin_count)
    longest_stall = max(longest_stall, stall_ns)
    result.longest_stall_ns = longest_stall
    steady_latency = int(config.spec.connections
                         * sim._op_cost(sim._single_mode())
                         / threads)
    result.max_latency_ns = (longest_stall + steady_latency
                             + TAIL_FLOOR_NS)
    return result


def instants(duration):
    """Lifecycle instants within a run of ``duration`` ns, on whole
    seconds (a bin boundary at every ``bin_ns``) or anywhere."""
    return st.one_of(
        st.integers(0, duration // SECOND).map(lambda s: s * SECOND),
        st.integers(0, duration))


@st.composite
def fluid_runs(draw):
    """``(sim, plan, kitsune_in_place)`` for one generated run."""
    duration = draw(st.integers(1_000, 60_000)) * MILLISECOND
    config = FluidConfig(
        profile=PROFILES[draw(st.sampled_from(sorted(PROFILES)))],
        threads=draw(st.integers(1, 4)),
        ring_capacity=1 << draw(st.integers(4, 24)),
        initial_entries=draw(st.integers(0, 2_000_000)),
        bin_ns=draw(st.sampled_from((1, 10, 100))) * MILLISECOND,
        spec=MemtierSpec(duration_ns=duration,
                         keyspace=draw(st.sampled_from((1_000, 100_000)))))
    plan = None
    if draw(st.integers(0, 3)):  # three runs in four update
        request_at = draw(instants(duration))
        # Every other instant after the request, in any order.
        later = instants(duration - request_at).map(
            lambda offset: request_at + offset)
        plan = UpdatePlan(request_at, promote_at=draw(st.none() | later),
                          finalize_at=draw(st.none() | later),
                          immediate_promotion=draw(st.booleans()),
                          rollback_at=draw(st.none() | later))
    fixed_mode = draw(st.none() | st.sampled_from(list(ExecutionMode)))
    return FluidSim(config, fixed_mode=fixed_mode), plan, draw(st.booleans())


def traced(run):
    """``(fingerprint, events)`` of ``run()`` under a fresh tracer."""
    log = Tracer()
    with observing(tracer=log):
        result = run()
    return fingerprint(result), [event.as_dict() for event in log.events]


@given(fluid_runs())
@settings(deadline=None)
def test_fast_forward_equals_plain_stepping(generated):
    sim, plan, in_place = generated
    fast = traced(lambda: sim.run(plan=plan, kitsune_in_place=in_place))
    reference = traced(lambda: reference_run(sim, plan=plan,
                                             kitsune_in_place=in_place))
    assert fast == reference
    assert all(event["kind"] == "dsu.lifecycle" for event in fast[1])


def executed_steps(experiment):
    """Steps ``experiment()`` executes in ``FluidSim.run``'s loop: line
    events on the loop body's first line, under ``sys.settrace``."""
    source, first = inspect.getsourcelines(FluidSim.run)
    loop = next(index for index, line in enumerate(source)
                if line.strip() == "while t < duration:")
    body = first + next(index for index in range(loop + 1, len(source))
                        if not source[index].strip().startswith("#"))
    code = FluidSim.run.__code__
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == body:
            steps += 1
        return count

    def calls(frame, event, arg):
        return count if frame.f_code is code else None

    sys.settrace(calls)
    try:
        experiment()
    finally:
        sys.settrace(None)
    return steps


#: experiment -> (steps executed at most, nominal steps: duration /
#: ``bin_ns`` summed over its runs).  Plain stepping executed every
#: nominal step; the fast-forward reads 2 668, 24 and 56.
STEP_CEILINGS = {
    "fig7": (3_000, 216_000),
    "fig6": (50, 72_000),
    "table2": (56, 28_000),
}
EXPERIMENTS = {"fig7": fig7.run_fig7, "fig6": fig6.run_fig6,
               "table2": table2.run_table2}


@pytest.mark.parametrize("name", sorted(STEP_CEILINGS))
def test_the_skipped_steps_stay_skipped(name):
    ceiling, nominal = STEP_CEILINGS[name]
    measured = executed_steps(EXPERIMENTS[name])
    assert 0 < measured <= ceiling < nominal
    assert executed_steps(EXPERIMENTS[name]) == measured  # run for run


# ---------------------------------------------------------------------------
# Inputs the run would misread
# ---------------------------------------------------------------------------

def test_a_zero_duration_is_rejected_not_read_as_the_spec_s():
    with pytest.raises(SimulationError, match="duration .* got 0"):
        FluidSim(redis_config()).run(0)


def test_a_negative_duration_is_rejected():
    with pytest.raises(SimulationError, match="duration .* got -5"):
        FluidSim(redis_config()).run(-5)


def test_a_zero_bin_is_rejected():
    with pytest.raises(SimulationError, match="bin_ns .* got 0"):
        FluidSim(redis_config(bin_ns=0)).run()


def test_a_bin_that_does_not_divide_a_second_is_rejected():
    with pytest.raises(SimulationError,
                       match="bin_ns must divide one second, got 3000000"):
        FluidSim(redis_config(bin_ns=3 * MILLISECOND)).run()


def test_zero_threads_are_rejected():
    with pytest.raises(SimulationError, match="threads .* got 0"):
        FluidSim(redis_config(threads=0)).run()


def test_a_non_positive_ring_capacity_is_rejected():
    with pytest.raises(SimulationError, match="ring_capacity .* got -1"):
        FluidSim(redis_config(ring_capacity=-1)).run(plan=plan())
