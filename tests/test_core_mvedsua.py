"""Integration tests for the Mvedsua orchestrator (the paper's §3.2)."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import deploy
from repro.chaos import ChaosInjector, Fault, FaultPlan, at_time, on_call
from repro.chaos.scenarios import buggy_v2_factory
from repro.core import Mvedsua, RetryPolicy, Stage
from repro.dsu import Kitsune
from repro.dsu.program import ThreadState
from repro.dsu.transform import TransformRegistry, clone_heap
from repro.errors import ServerCrash, SimulationError
from repro.net import VirtualKernel
from repro.obs.trace import Tracer
from repro.servers.base import Server
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    kv_transforms,
    xform_drop_table,
    xform_uninitialised_type,
)
from repro.servers.native import NativeRuntime
from repro.sim.engine import MILLISECOND, SECOND
from repro.sites import OBS, observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient
from tests.counting import counted


def deployment(transforms=None):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                      transforms=transforms or kv_transforms())
    client = VirtualClient(kernel, server.address)
    return kernel, mvedsua, client


def buggy_transforms(xform):
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", xform)
    return registry


def quiesce_timeouts(trigger):
    """An injector whose ``dsu.quiesce`` timeout fires on ``trigger``: a
    thread never reaches an update point (the timing error class)."""
    return ChaosInjector(FaultPlan("timing", (
        Fault("dsu.quiesce", "timeout", trigger),)))


class TestHappyPath:
    def test_full_lifecycle(self):
        _, mvedsua, client = deployment()
        assert mvedsua.stage is Stage.SINGLE_LEADER
        client.command(mvedsua, b"PUT balance 1000")

        attempt = mvedsua.request_update(KVStoreV2(), SECOND,
                                         rules=kv_rules())
        assert attempt.ok
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.current_version == "1.0"

        # Old semantics enforced while outdated leader runs.
        reply = client.command(mvedsua, b"PUT-number pi 3", now=2 * SECOND)
        assert reply == b"-ERR unknown command\r\n"
        assert client.command(mvedsua, b"GET balance",
                              now=3 * SECOND) == b"1000\r\n"
        assert mvedsua.timeline.t3_caught_up is not None

        mvedsua.promote(4 * SECOND)
        assert mvedsua.stage is Stage.UPDATED_LEADER
        assert mvedsua.current_version == "2.0"

        mvedsua.finalize(5 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        outcome = mvedsua.last_outcome()
        assert outcome.succeeded() and not outcome.rolled_back()
        assert outcome.ended_by == "finalize"

        # New semantics now exposed; old state preserved.
        assert client.command(mvedsua, b"GET balance",
                              now=6 * SECOND) == b"1000\r\n"
        client.command(mvedsua, b"PUT-number pi 3", now=6 * SECOND)
        assert client.command(mvedsua, b"TYPE pi",
                              now=7 * SECOND) == b"number\r\n"

    def test_timeline_ordering(self):
        _, mvedsua, client = deployment()
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        client.command(mvedsua, b"GET a", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        mvedsua.finalize(4 * SECOND)
        t = mvedsua.last_outcome()
        [fork] = [e for e in mvedsua.runtime.events if e.kind == "fork"]
        assert t.t1_forked == fork.at
        assert t.t1_forked <= t.t2_updated <= t.t3_caught_up
        assert t.t4_demote <= t.t5_promoted <= t.t6_finalized
        assert t.update_duration_ns() >= 0

    def test_update_runs_off_the_leaders_critical_path(self):
        """The dynamic update charges the follower CPU, not the leader."""
        _, mvedsua, client = deployment()
        # Pre-populate a large store (as Figure 7 does with 1M entries).
        server = mvedsua.runtime.leader.server
        server.heap["table"].update(
            {f"key{i}": "value" for i in range(100_000)})
        leader_before = mvedsua.runtime.leader.cpu.busy_until
        attempt = mvedsua.request_update(KVStoreV2(), SECOND,
                                         rules=kv_rules())
        assert attempt.xform_ns == 100_000 * PROFILES["kvstore"].xform_entry_ns
        leader_pause = mvedsua.runtime.leader.cpu.busy_until - max(
            leader_before, SECOND)
        # Leader paid only quiesce + fork, far less than the transform.
        assert leader_pause < attempt.xform_ns

    def test_operator_rollback(self):
        _, mvedsua, client = deployment()
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        mvedsua.rollback(2 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "1.0"
        assert mvedsua.last_outcome().rolled_back()
        assert mvedsua.last_outcome().ended_by == "operator"
        assert client.command(mvedsua, b"GET a", now=3 * SECOND) == b"1\r\n"


class TestGuards:
    def test_update_during_update_rejected(self):
        _, mvedsua, _ = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        with pytest.raises(SimulationError):
            mvedsua.request_update(KVStoreV2(), 2 * SECOND)

    def test_promote_from_single_leader_rejected(self):
        _, mvedsua, _ = deployment()
        with pytest.raises(SimulationError):
            mvedsua.promote(SECOND)

    def test_finalize_without_follower_rejected(self):
        _, mvedsua, _ = deployment()
        with pytest.raises(SimulationError):
            mvedsua.finalize(SECOND)

    def test_finalize_from_outdated_leader_rejected(self):
        # Finalizing drops the follower, here the *new* version.
        _, mvedsua, _ = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        with pytest.raises(SimulationError, match="outdated-leader"):
            mvedsua.finalize(2 * SECOND)
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.follower.version_name == "2.0"
        assert mvedsua.history == []

    def test_rollback_from_updated_leader_rejected(self):
        _, mvedsua, _ = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        mvedsua.promote(2 * SECOND)
        with pytest.raises(SimulationError):
            mvedsua.rollback(3 * SECOND)


class TestFaultTolerance:
    """The paper's §6.2 fault classes, on the running example."""

    def test_error_in_new_code_rolls_back(self):
        """A follower crash terminates it; clients never notice."""
        _, mvedsua, client = deployment(
            buggy_transforms(xform_uninitialised_type))
        client.command(mvedsua, b"PUT k v")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        # The GET crashes the follower during catch-up...
        assert client.command(mvedsua, b"GET k", now=2 * SECOND) == b"v\r\n"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        # ...and service continues uninterrupted.
        assert client.command(mvedsua, b"GET k", now=3 * SECOND) == b"v\r\n"

    def test_silent_state_transform_error_detected_as_divergence(self):
        _, mvedsua, client = deployment(buggy_transforms(xform_drop_table))
        client.command(mvedsua, b"PUT k v")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        client.command(mvedsua, b"GET k", now=2 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        assert mvedsua.runtime.last_divergence is not None

    def test_raising_transformer_fails_update_cleanly(self):
        def exploding(heap):
            raise KeyError("missing field")
        _, mvedsua, client = deployment(buggy_transforms(exploding))
        client.command(mvedsua, b"PUT k v")
        attempt = mvedsua.request_update(KVStoreV2(), SECOND)
        assert not attempt.ok
        assert attempt.reason == "transform-failed"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert client.command(mvedsua, b"GET k", now=2 * SECOND) == b"v\r\n"

    def test_timing_error_reported_as_quiescence_failure(self):
        _, mvedsua, _ = deployment()
        with observing(chaos=quiesce_timeouts(on_call(1))):
            attempt = mvedsua.request_update(KVStoreV2(), SECOND)
        assert not attempt.ok
        assert attempt.reason == "quiescence-failed"
        assert mvedsua.stage is Stage.SINGLE_LEADER


class TestRetryPolicy:
    def test_retry_until_quiescence_succeeds(self):
        _, mvedsua, _ = deployment()
        policy = RetryPolicy(retry_wait_ns=500 * MILLISECOND,
                             max_attempts=10)
        # The first three quiesce attempts time out.
        with observing(chaos=quiesce_timeouts(at_time(0, count=3))):
            attempts = mvedsua.request_update_with_retry(
                KVStoreV2(), SECOND, rules=kv_rules(), policy=policy)
        assert len(attempts) == 4
        assert attempts[-1].ok
        assert all(not a.ok for a in attempts[:-1])
        assert mvedsua.stage is Stage.OUTDATED_LEADER

    def test_retry_waits_500ms_between_attempts(self):
        _, mvedsua, _ = deployment()
        policy = RetryPolicy(retry_wait_ns=500 * MILLISECOND, max_attempts=3)
        with observing(chaos=quiesce_timeouts(at_time(0, count=-1))):
            attempts = mvedsua.request_update_with_retry(
                KVStoreV2(), SECOND, policy=policy)
        assert len(attempts) == 3
        assert attempts[1].at - attempts[0].at == 500 * MILLISECOND

    def test_transform_failures_are_not_retried(self):
        def exploding(heap):
            raise ValueError("deterministic bug")
        _, mvedsua, _ = deployment(buggy_transforms(exploding))
        attempts = mvedsua.request_update_with_retry(KVStoreV2(), SECOND)
        assert len(attempts) == 1
        assert attempts[0].reason == "transform-failed"


class TestCrashPromotion:
    class CrashingV1(KVStoreV1):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"HMGET"):
                raise ServerCrashHolder.error()
            return super().handle(heap, request, session)

    def test_old_version_crash_promotes_new_version(self):
        from repro.errors import ServerCrash

        class CrashV1(KVStoreV1):
            def handle(self, heap, request, session=None, io=None):
                if request.startswith(b"BOOM"):
                    raise ServerCrash("old bug")
                return super().handle(heap, request, session)

        kernel = VirtualKernel()
        server = KVStoreServer(CrashV1())
        server.attach(kernel)
        mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                          transforms=kv_transforms())
        client = VirtualClient(kernel, server.address)
        client.command(mvedsua, b"PUT a 1")
        mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
        reply = client.command(mvedsua, b"BOOM", now=2 * SECOND)
        # New version (which lacks the bug) answered instead of crashing.
        assert reply == b"-ERR unknown command\r\n"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "2.0"
        outcome = mvedsua.last_outcome()
        assert outcome.succeeded() and outcome.ended_by == "leader-crash"
        assert outcome.t5_promoted == outcome.t6_finalized
        assert client.command(mvedsua, b"GET a", now=3 * SECOND) == b"1\r\n"


    def test_new_version_crash_after_promotion_rolls_back(self):
        stack = deploy("kvstore", "1.0")
        mvedsua, client = stack.runtime, stack.client()
        client.command(mvedsua, b"PUT a 1")
        stack.update("2.0", SECOND)
        client.command(mvedsua, b"GET a", now=2 * SECOND)
        mvedsua.promote(3 * SECOND)
        assert mvedsua.timeline.t5_promoted == 3 * SECOND
        crash = ChaosInjector(FaultPlan("crash", (
            Fault("mve.leader", "crash", on_call(3)),)))
        with observing(chaos=crash):
            for tick in range(4, 9):
                assert client.command(mvedsua, b"GET a",
                                      now=tick * SECOND) == b"1\r\n"
        # 1.0, the follower, took over: the update is undone.
        assert mvedsua.current_version == "1.0"
        assert mvedsua.stage is Stage.SINGLE_LEADER
        outcome = mvedsua.last_outcome()
        assert outcome.rolled_back() and not outcome.succeeded()
        assert outcome.rolled_back_at == crash.injections[0].at
        assert outcome.t5_promoted == 3 * SECOND
        assert outcome.ended_by == "leader-crash"


class ServerCrashHolder:
    @staticmethod
    def error():
        from repro.errors import ServerCrash
        return ServerCrash("boom")


class TestPromotionDrainDivergence:
    def test_divergence_during_promotion_drain_rolls_back(self):
        """Promoting with a divergent backlog aborts the promotion: the
        old leader stays in charge and the update is rolled back."""
        _, mvedsua, client = deployment()
        mvedsua.request_update(KVStoreV2(), SECOND)  # no rules on purpose
        client.command(mvedsua, b"PUT-number pi 3", now=2 * SECOND)
        # Whether the divergent iteration was caught by pump's catch-up
        # or is still queued for promote()'s drain, the outcome is the
        # same rollback.
        if mvedsua.stage is Stage.OUTDATED_LEADER:
            mvedsua.promote(3 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "1.0"
        assert mvedsua.last_outcome().rolled_back()
        assert client.command(mvedsua, b"PUT ok 1",
                              now=4 * SECOND) == b"+OK\r\n"


#: The faults a drawn lifecycle arms: each crashes or corrupts one side
#: of the pair on that side's n-th iteration from the arming step.
LIFECYCLE_FAULTS = (("mve.leader", "crash"), ("mve.follower", "crash"),
                    ("mve.follower", "corrupt-record"))


def run_lifecycle(steps):
    """Drive a kvstore 1.0 deployment through ``steps``; after each,
    check every timeline closed since the last.  An operator call the
    stage does not allow is refused; a leader crash with no follower
    ends the run."""
    stack = deploy("kvstore", "1.0")
    mvedsua, client = stack.runtime, stack.client()
    checked, promoted_at = 0, None
    with observing(chaos=None):
        for now, step in enumerate(steps, start=1):
            now *= SECOND
            crashed = False
            try:
                if isinstance(step, tuple):
                    # Arm one fault, counting its site's calls from here
                    # (it replaces a fault armed earlier that never fired).
                    (site, kind), call = step
                    OBS.chaos = ChaosInjector(FaultPlan("armed", (
                        Fault(site, kind, on_call(call)),)))
                elif step == "put":
                    client.command(mvedsua, b"PUT k %d" % now, now=now)
                elif step == "get":
                    client.command(mvedsua, b"GET k", now=now)
                elif step.startswith("update"):
                    if mvedsua.current_version == "1.0":
                        stack.update("2.0-buggy" if step == "update-buggy"
                                     else "2.0", now)
                else:
                    getattr(mvedsua, step)(now)
            except SimulationError:
                pass
            except ServerCrash:
                crashed = True
            timeline = mvedsua.timeline
            if timeline is not None and promoted_at is None:
                promoted_at = timeline.t5_promoted
            for closed in mvedsua.history[checked:]:
                assert mvedsua.stage is Stage.SINGLE_LEADER
                assert closed.succeeded() \
                    == (mvedsua.current_version != "1.0")
                assert (closed.t6_finalized is None) \
                    != (closed.rolled_back_at is None)
                assert closed.ended_by is not None
                if promoted_at is not None:
                    assert closed.t5_promoted == promoted_at
                promoted_at = None
            checked = len(mvedsua.history)
            if crashed:
                return


@settings(deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(("put", "get", "update", "update-buggy", "promote",
                     "finalize", "rollback")),
    st.tuples(st.sampled_from(LIFECYCLE_FAULTS), st.integers(1, 4))),
    max_size=16))
def test_an_update_succeeded_iff_the_new_version_leads(steps):
    """Over drawn lifecycles, each closed timeline succeeded iff the
    new version leads once it closed; exactly one of t6 and the
    rollback is set, and a set t5 never moves."""
    run_lifecycle(steps)


def update_each_way(transforms, threads=None, plan=None, tries=1):
    """Standalone Kitsune (``NativeRuntime.apply_update``) and Mvedsua
    (``request_update``) each update kvstore 1.0 → 2.0 with a 200-entry
    preload (and ``threads`` parked in each server): up to ``tries``
    attempts a second apart, stopping at the first that applies, under
    a tracer and a fresh injector from ``plan()``.  Per runtime, its
    attempts, the ``dsu.*`` and ``chaos.inject`` events they logged and
    the process the update installed into: the native server, or
    Mvedsua's follower child (None while no attempt applied)."""
    runs = []
    for runtime in (NativeRuntime, Mvedsua):
        kernel = VirtualKernel()
        server = KVStoreServer(KVStoreV1())
        server.attach(kernel)
        server.heap["table"].update({f"k{i}": "v" for i in range(200)})
        if threads is not None:
            server.threads = list(threads)
        if runtime is NativeRuntime:
            native = NativeRuntime(kernel, server, PROFILES["kvstore"],
                                   with_kitsune=True)

            def update(at, kitsune=Kitsune(transforms)):
                return native.apply_update(kitsune, KVStoreV2(), at)

            def installed():
                return native.server
        else:
            mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                              transforms=transforms)

            def update(at):
                return mvedsua.request_update(KVStoreV2(), at,
                                              rules=kv_rules())

            def installed():
                follower = mvedsua.runtime.follower
                return None if follower is None else follower.server
        tracer, attempts = Tracer(), []
        chaos = None if plan is None else ChaosInjector(plan())
        with observing(tracer=tracer, chaos=chaos):
            for attempt_index in range(1, tries + 1):
                attempts.append(update(attempt_index * SECOND))
                if attempts[-1].ok:
                    break
        runs.append((attempts, [event for event in tracer.events
                                if event.kind.startswith("dsu.")
                                or event.kind == "chaos.inject"],
                     installed()))
    return runs


def phases(attempt):
    """What an attempt records of its phases (``at`` is the fork under
    Mvedsua once the update applies)."""
    return (attempt.ok, attempt.reason, attempt.quiesce_ns,
            attempt.xform_ns, attempt.entries, attempt.error,
            None if attempt.ok else attempt.at)


def step_events(events):
    """The events Kitsune's update step logs, ``system`` aside: each
    attempt's ``dsu.request``, ``dsu.quiesce`` and ``dsu.failed``."""
    return [(event.at, event.kind,
             {key: value for key, value in event.fields.items()
              if key != "system"})
            for event in events
            if event.kind in ("dsu.request", "dsu.quiesce", "dsu.failed")]


def injections_per_attempt(events):
    """Per attempt, the time its ``dsu.request`` is stamped at and the
    ``chaos.inject`` events its step logged (a ``dsu.update`` fault
    fires just before the request it rewrites)."""
    steps, opened = [], False
    for event in events:
        if event.kind == "chaos.inject":
            if event.fields["site"] == "dsu.update":
                steps.append([None, []])
                opened = True
            steps[-1][1].append(event)
        elif event.kind == "dsu.request":
            if not opened:
                steps.append([None, []])
            steps[-1][0], opened = event.at, False
    return steps


class TestOneUpdateRecord:
    """Standalone Kitsune (``NativeRuntime.apply_update``) and Mvedsua
    (``request_update``) run the same two phases and return the same
    ``UpdateAttempt``: for one version pair and one preload, the record
    of each phase agrees."""

    @staticmethod
    def _both(transforms, threads=None):
        """The attempt each runtime makes at kvstore 1.0 → 2.0 with a
        200-entry preload (and ``threads`` parked in each server)."""
        return [attempts[0] for attempts, _, _
                in update_each_way(transforms, threads)]

    def test_an_applied_update_records_the_same_phases(self):
        kitsune, mvedsua = self._both(kv_transforms())
        assert phases(kitsune) == phases(mvedsua)
        assert kitsune.reason == "applied"
        assert kitsune.entries == 200
        assert kitsune.xform_ns == 200 * PROFILES["kvstore"].xform_entry_ns

    def test_a_blocked_thread_fails_quiescence_in_both(self):
        kitsune, mvedsua = self._both(
            kv_transforms(), threads=[ThreadState("stuck",
                                                  blocked_on_lock=True)])
        assert phases(kitsune) == phases(mvedsua)
        assert (kitsune.reason, kitsune.quiesce_ns) \
            == ("quiescence-failed", 0)
        assert "stuck" in kitsune.error

    def test_a_raising_transformer_fails_the_transform_in_both(self):
        def boom(heap):
            raise KeyError("table")

        kitsune, mvedsua = self._both(buggy_transforms(boom))
        assert phases(kitsune) == phases(mvedsua)
        assert (kitsune.reason, kitsune.xform_ns, kitsune.entries) \
            == ("transform-failed", 0, 0)
        assert kitsune.quiesce_ns > 0
        assert "raised" in kitsune.error

    def test_a_failed_transform_is_logged_when_quiescence_ended(self):
        def plan():
            return FaultPlan("xform", (
                Fault("dsu.transform", "exception", on_call(1)),))

        for attempts, events, _ in update_each_way(kv_transforms(),
                                                   plan=plan):
            (attempt,) = attempts
            stamps = {event.kind: event.at for event in events}
            assert attempt.reason == "transform-failed"
            assert stamps["dsu.failed"] == stamps["dsu.quiesce"] \
                == SECOND + attempt.quiesce_ns


#: Each ``dsu.*`` fault kind's parameters, from one generated knob in
#: 0..60 (the kinds are unique across the three sites).
DSU_FAULT_PARAMS = {
    ("dsu.update", "buggy-version"): lambda knob: {
        "factory": buggy_v2_factory},
    ("dsu.quiesce", "timeout"): lambda knob: {},
    ("dsu.quiesce", "race"): lambda knob: {
        "rng": random.Random(knob), "probability": knob / 60},
    ("dsu.quiesce", "delay"): lambda knob: {
        "delay_ns": knob * MILLISECOND},
    ("dsu.transform", "exception"): lambda knob: {},
    ("dsu.transform", "replace"): lambda knob: {
        "transformer": (xform_drop_table,
                        xform_uninitialised_type)[knob % 2]},
    ("dsu.transform", "corrupt-heap"): lambda knob: {
        "marker": "!" * (1 + knob % 3)},
}


@given(st.lists(st.tuples(st.sampled_from(sorted(DSU_FAULT_PARAMS)),
                          st.integers(1, 3), st.integers(0, 60)),
                max_size=4))
def test_one_update_step_under_any_dsu_fault_plan(faults):
    """Whatever ``dsu.*`` faults fire on which call, standalone Kitsune
    and Mvedsua fail the same attempts the same way, log the same
    update step (three tries, so call indices 2 and 3 are reached) and,
    when one applied, install the same version and heap.  A fault lasts
    its attempt: an attempt no fault fired on applies, and each fault
    is stamped when its attempt was requested."""
    def plan():
        return FaultPlan("generated", tuple(
            Fault(site, kind, on_call(index),
                  DSU_FAULT_PARAMS[site, kind](knob))
            for (site, kind), index, knob in faults))

    ((kitsune, kitsune_events, native), (mvedsua, mvedsua_events, child)) \
        = update_each_way(kv_transforms(), plan=plan, tries=3)
    assert [phases(attempt) for attempt in kitsune] \
        == [phases(attempt) for attempt in mvedsua]
    assert step_events(kitsune_events) == step_events(mvedsua_events)
    for attempts, events in ((kitsune, kitsune_events),
                             (mvedsua, mvedsua_events)):
        steps = injections_per_attempt(events)
        assert len(steps) == len(attempts)
        for attempt, (requested, injections) in zip(attempts, steps):
            assert attempt.ok or injections, attempt.error
            assert [event.at for event in injections] \
                == [requested] * len(injections)
    if kitsune[-1].ok:
        assert type(native.version) is type(child.version)
        assert native.version.name == child.version.name
        assert native.heap == child.heap


# -- one copy of the process image per update ---------------------------------

_KEYS = st.sampled_from("abc")
_WORDS = st.text("xyz", min_size=1, max_size=3)
#: app -> (the label updated from, the label updated to, one request
#: line of its history).  Redis's verbs build lists, sets and hashes.
UPDATES = {
    "kvstore": ("1.0", "2.0", st.one_of(
        st.builds("PUT {} {}".format, _KEYS, _WORDS),
        st.builds("GET {}".format, _KEYS)).map(str.encode)),
    "redis": ("2.0.0", "2.0.1", st.builds(
        "{} {} {} {}".format,
        st.sampled_from(["SET", "APPEND", "DEL", "RPUSH", "LPUSH",
                         "LPOP", "SADD", "SREM", "HSET", "HDEL", "EXPIRE",
                         "INCRBY", "DECRBY", "LRANGE", "LINDEX"]),
        _KEYS, _WORDS, _WORDS).map(str.encode)),
}


def updated(app_name, history, **runtime_kwargs):
    """Serve ``history`` on the app's older label under Mvedsua, then
    update it: the stack, the attempt and how many times a server forked
    during the update."""
    old, new, _ = UPDATES[app_name]
    stack = deploy(app_name, old, **runtime_kwargs)
    client = stack.client()
    for line in history:
        client.command(stack.runtime, line)
    with counted(Server, "fork") as calls:
        attempt = stack.update(new, SECOND)
    return stack, attempt, calls["fork"]


def containers(value, found=None):
    """The ``id`` of every dict, list and set reachable from ``value``,
    through tuples too."""
    found = set() if found is None else found
    if isinstance(value, (dict, list, set, tuple)):
        if not isinstance(value, tuple):
            found.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            containers(item, found)
    return found


def pair(stack):
    """The leader's and the follower's servers."""
    runtime = stack.runtime.runtime
    return runtime.leader.server, runtime.follower.server


class TestOneImageCopyPerUpdate:
    """The transformer's private copy of the leader heap is the
    follower's heap: an update forks once, around it, and the two
    processes share no mutable state."""

    def test_a_successful_update_forks_once(self):
        _, attempt, forks = updated("kvstore", [b"PUT balance 1000"])
        assert attempt.ok
        assert forks == 1

    def test_a_raising_transformer_forks_nothing_and_spares_the_leader(self):
        def half_done(heap):
            heap["table"].clear()
            raise ValueError("boom")

        stack = deploy("kvstore", "1.0",
                       transforms=buggy_transforms(half_done))
        stack.client().command(stack.runtime, b"PUT balance 1000")
        before = clone_heap(stack.server.heap)
        with counted(Server, "fork") as calls:
            attempt = stack.update("2.0", SECOND)
        assert attempt.reason == "transform-failed"
        assert calls["fork"] == 0
        assert stack.server.heap == before

    def test_an_identity_update_shares_no_container_with_the_leader(self):
        stack, attempt, _ = updated("redis", [
            b"SET a 1", b"RPUSH l x", b"SADD s m", b"HSET h f v",
            b"EXPIRE a 10"])
        assert attempt.ok
        leader, follower = pair(stack)
        assert follower.heap == leader.heap
        assert not containers(follower.heap) & containers(leader.heap)

    def test_a_kvstore_update_gives_the_follower_its_own_table(self):
        stack, attempt, _ = updated("kvstore", [b"PUT a 1", b"PUT b 2"])
        assert attempt.ok
        leader, follower = pair(stack)
        assert follower.heap["table"] is not leader.heap["table"]
        assert leader.heap["table"] == {"a": "1", "b": "2"}


@given(st.sampled_from(sorted(UPDATES)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.lists(UPDATES[name][2], max_size=12))))
def test_an_update_copies_the_leader_image_once(case):
    app_name, history = case
    stack, attempt, forks = updated(app_name, history)
    assert attempt.ok
    assert forks == 1
    leader, follower = pair(stack)
    old, new, _ = UPDATES[app_name]
    assert follower.heap == stack.runtime.kitsune.transforms.apply(
        app_name, old, new, leader.heap)
    assert not hasattr(follower, "program")   # one heap, on the process
    assert not containers(follower.heap) & containers(leader.heap)


def held_lengths(mvedsua):
    """The length of every list, deque, dict and set the monitor holds:
    the Mvedsua, its runtime, each lane and that lane's ring (the server
    heap and the kernel are the served state, not the monitor's)."""
    runtime = mvedsua.runtime
    owners = {"mvedsua": vars(mvedsua), "runtime": vars(runtime),
              "ring": vars(runtime.ring)}
    for index, lane in enumerate(runtime.lanes):
        owners[f"lane{index}"] = {name: getattr(lane, name)
                                  for name in lane.__slots__}
        owners[f"lane{index}.ring"] = vars(lane.ring)
    return {f"{owner}.{name}": len(value)
            for owner, fields in owners.items()
            for name, value in fields.items()
            if isinstance(value, (list, deque, dict, set))}


class TestNoPerRequestLedger:
    """Unobserved, a deployment records nothing per request: Varan's
    single-leader mode records nothing, and the pair keeps only what
    replication needs."""

    REQUESTS = 100

    def test_unobserved_pair_holds_the_same_after_twice_the_requests(self):
        # Redis 2.0.0 -> 2.0.1: the aof_order rule fires on every SET.
        stack = deploy("redis", "2.0.0")
        mvedsua, client = stack.runtime, stack.client()
        assert stack.update("2.0.1", SECOND).ok
        now = 2 * SECOND

        def serve(first):
            nonlocal now
            for index in range(first, first + self.REQUESTS):
                reply, now = client.request(
                    mvedsua, b"SET k%d v\r\n" % index, now + 1)
                assert reply == b"+OK\r\n"
            mvedsua.runtime.drain_follower()

        serve(0)
        after_n = held_lengths(mvedsua)
        serve(self.REQUESTS)
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert held_lengths(mvedsua) == after_n
