"""repro.chaos unit tests: the plan DSL, the injector, the per-layer
fault hooks, the invariant checker, and the obs integration."""

import json

import pytest

from repro.chaos import (
    ChaosInjector,
    Fault,
    FaultPlan,
    at_stage,
    at_time,
    load_plan,
    on_call,
    when,
)
from repro.chaos.invariants import ClientObservation, check_run
from repro.chaos.scenarios import run_kv_update_scenario
from repro.errors import BrokenPipe, ConnectionReset, FdExhausted
from repro.mve.varan import CORRUPTION_MARKER
from repro.net.kernel import VirtualKernel
from repro.obs import Tracer, validate_trace_lines
from repro.sim.engine import Engine
from repro.sites import OBS, observing


# ---------------------------------------------------------------------------
# The plan DSL
# ---------------------------------------------------------------------------


class TestPlanDsl:
    def test_describe_formats(self):
        assert on_call(3).describe() == "on-call:3"
        assert at_time(500).describe() == "at-time:500"
        assert at_stage("outdated-leader").describe() == \
            "at-stage:outdated-leader"
        assert when(lambda ctx: True).describe() == "predicate"
        assert when(lambda ctx: True, label="every 5th read").describe() \
            == "predicate:every 5th read"

    def test_fault_describe_names_site_kind_trigger(self):
        fault = Fault("kernel.read", "econnreset", on_call(4))
        assert fault.describe() == "kernel.read/econnreset@on-call:4"

    def test_as_dict_never_serializes_callables(self):
        fault = Fault("dsu.transform", "replace",
                      when(lambda ctx: True, label="x"),
                      param={"transformer": lambda heap: heap, "bytes": 3})
        payload = fault.as_dict()
        # Deterministic and JSON-clean: callables become summaries.
        assert json.loads(json.dumps(payload)) == payload
        assert payload["param"]["transformer"] == "<function>"
        assert payload["param"]["bytes"] == 3
        assert payload["trigger"] == {"kind": "predicate", "count": 1,
                                      "label": "x"}

    def test_validate_reports_index_site_and_kind(self):
        plan = FaultPlan("bad", (
            Fault("kernel.reed", "econnreset", on_call(1)),
            Fault("mve.leader", "corrupt-record", on_call(1)),
            Fault("kernel.read", "econnreset", on_call(0)),
        ))
        problems = plan.validate()
        assert len(problems) == 3
        assert problems[0].startswith("fault[0] kernel.reed/econnreset: ")
        assert "unknown injection site" in problems[0]
        assert "not legal at site" in problems[1]
        assert "call_index >= 1" in problems[2]

    def test_load_plan_roundtrip(self, tmp_path):
        path = tmp_path / "my_plan.py"
        path.write_text(
            "from repro.chaos import Fault, FaultPlan, on_call\n"
            "def plan():\n"
            "    return FaultPlan('mine', "
            "(Fault('mve.follower', 'crash', on_call(1)),))\n")
        plan = load_plan(str(path))
        assert plan.name == "mine"
        assert plan.faults[0].site == "mve.follower"

    def test_load_plan_rejects_missing_factory(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        with pytest.raises(ValueError, match="plan"):
            load_plan(str(path))


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class TestInjector:
    def test_invalid_plan_is_rejected_at_construction(self):
        plan = FaultPlan("bad", (Fault("nope", "crash", on_call(1)),))
        with pytest.raises(ValueError, match="invalid fault plan"):
            ChaosInjector(plan)

    def test_on_call_fires_exactly_the_nth_call(self):
        injector = ChaosInjector(FaultPlan("p", (
            Fault("mve.leader", "crash", on_call(3)),)))
        fired = [injector.fire("mve.leader") for _ in range(5)]
        assert [f is not None for f in fired] == \
            [False, False, True, False, False]
        assert injector.site_calls["mve.leader"] == 5
        assert len(injector.injections) == 1
        assert injector.injections[0].call_index == 3

    def test_site_calls_count_even_without_armed_faults(self):
        injector = ChaosInjector(FaultPlan("empty"))
        injector.fire("mve.leader")
        injector.fire("mve.leader")
        assert injector.site_calls == {"mve.leader": 2}

    def test_count_bounds_total_firings(self):
        injector = ChaosInjector(FaultPlan("p", (
            Fault("sim.event", "drop",
                  when(lambda ctx: True, count=2)),)))
        fired = [injector.fire("sim.event") for _ in range(4)]
        assert sum(f is not None for f in fired) == 2
        unlimited = ChaosInjector(FaultPlan("p", (
            Fault("sim.event", "drop",
                  when(lambda ctx: True, count=-1)),)))
        assert all(unlimited.fire("sim.event") for _ in range(4))

    def test_at_time_fires_first_call_at_or_after(self):
        injector = ChaosInjector(FaultPlan("p", (
            Fault("mve.ring", "stall", at_time(1_000)),)))
        injector.advance(500)
        assert injector.fire("mve.ring") is None
        injector.advance(1_000)
        assert injector.fire("mve.ring") is not None
        assert injector.fire("mve.ring") is None  # single-shot

    def test_at_stage_fires_only_in_the_named_stage(self):
        injector = ChaosInjector(FaultPlan("p", (
            Fault("mve.follower", "crash",
                  at_stage("outdated-leader")),)))
        injector.note_stage("single-leader")
        assert injector.fire("mve.follower") is None
        injector.note_stage("outdated-leader")
        assert injector.fire("mve.follower") is not None

    def test_predicate_sees_standard_and_extra_context(self):
        seen = []
        injector = ChaosInjector(FaultPlan("p", (
            Fault("kernel.read", "econnreset",
                  when(lambda ctx: seen.append(dict(ctx)) or False,
                       count=-1)),)))
        injector.advance(77)
        injector.note_stage("single-leader")
        injector.fire("kernel.read", fd=9, domain=2)
        assert seen[0]["site"] == "kernel.read"
        assert seen[0]["call_index"] == 1
        assert seen[0]["at"] == 77
        assert seen[0]["stage"] == "single-leader"
        assert seen[0]["fd"] == 9

    def test_domain_filter_skips_and_does_not_count(self):
        injector = ChaosInjector(FaultPlan("p", (
            Fault("kernel.read", "econnreset", on_call(1)),)))
        injector.domain_filter = {1}
        assert injector.kernel_call("kernel.read", 2, 5) is None
        assert "kernel.read" not in injector.site_calls
        assert injector.kernel_call("kernel.read", 1, 5) is not None

    def test_chaos_active_scopes_the_installation(self):
        assert OBS.chaos is None
        injector = ChaosInjector(FaultPlan("p"))
        with observing(chaos=injector):
            assert OBS.chaos is injector
        assert OBS.chaos is None


# ---------------------------------------------------------------------------
# The disabled path is zero-cost
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_fault_free_run_allocates_no_injectors(self):
        created = ChaosInjector.created_total
        injected = ChaosInjector.injected_total
        result = run_kv_update_scenario()
        assert ChaosInjector.created_total == created
        assert ChaosInjector.injected_total == injected
        assert result.finalized
        assert not result.injections

    def test_kernel_and_engine_hooks_stay_none(self):
        # Nothing installed: the slot holds four Nones, and neither a
        # kernel nor an engine keeps a hook of its own to find later.
        assert (OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder) == \
            (None, None, None, None)
        for built in (VirtualKernel(), Engine()):
            assert not {"tracer", "chaos"} & set(vars(built))


# ---------------------------------------------------------------------------
# sim.event faults in the engine
# ---------------------------------------------------------------------------


class TestEngineFaults:
    def test_drop_discards_one_event(self):
        ran = []
        plan = FaultPlan("p", (
            Fault("sim.event", "drop", on_call(1)),))
        with observing(chaos=ChaosInjector(plan)):
            engine = Engine()
            engine.schedule_at(10, lambda: ran.append("a"))
            engine.schedule_at(20, lambda: ran.append("b"))
            engine.run()
        assert ran == ["b"]

    def test_delay_requeues_the_event_later(self):
        ran = []
        plan = FaultPlan("p", (
            Fault("sim.event", "delay", on_call(1),
                  param={"delay_ns": 15}),))
        with observing(chaos=ChaosInjector(plan)):
            engine = Engine()
            engine.schedule_at(10, lambda: ran.append(engine.now))
            engine.schedule_at(20, lambda: ran.append(engine.now))
            engine.run()
        # First event pushed from t=10 to t=25, after the second.
        assert ran == [20, 25]


# ---------------------------------------------------------------------------
# kernel.* faults
# ---------------------------------------------------------------------------


def _connected_pair(kernel):
    """A raw server/client fd pair through the kernel primitives."""
    server_domain = kernel.create_domain()
    listen_fd = kernel.listen(server_domain, ("srv", 1))
    client_domain = kernel.create_domain()
    client_fd = kernel.connect(client_domain, ("srv", 1))
    server_fd = kernel.accept(server_domain, listen_fd)
    return server_domain, server_fd, client_domain, client_fd


class TestKernelFaults:
    @pytest.fixture(autouse=True)
    def _installer(self, install):
        self._install = install

    def _kernel(self, site, kind, trigger, param=None):
        plan = FaultPlan("p", (
            Fault(site, kind, trigger, param=param or {}),))
        self._install(chaos=ChaosInjector(plan))
        return VirtualKernel()

    def test_read_econnreset(self):
        kernel = self._kernel("kernel.read", "econnreset", on_call(1))
        sdom, sfd, cdom, cfd = _connected_pair(kernel)
        kernel.write(cdom, cfd, b"GET alpha\r\n")
        with pytest.raises(ConnectionReset):
            kernel.read(sdom, sfd)

    def test_read_short_read_delivers_a_prefix(self):
        kernel = self._kernel("kernel.read", "short-read", on_call(1),
                              param={"bytes": 4})
        sdom, sfd, cdom, cfd = _connected_pair(kernel)
        kernel.write(cdom, cfd, b"GET alpha\r\n")
        assert kernel.read(sdom, sfd) == b"GET "
        # The fault is single-shot; the remainder is still buffered.
        assert kernel.read(sdom, sfd) == b"alpha\r\n"

    def test_write_epipe(self):
        kernel = self._kernel("kernel.write", "epipe", on_call(1))
        sdom, sfd, cdom, cfd = _connected_pair(kernel)
        with pytest.raises(BrokenPipe):
            kernel.write(sdom, sfd, b"+OK\r\n")

    def test_write_short_write_accepts_a_prefix(self):
        kernel = self._kernel("kernel.write", "short-write", on_call(1),
                              param={"bytes": 2})
        sdom, sfd, cdom, cfd = _connected_pair(kernel)
        assert kernel.write(sdom, sfd, b"+OK\r\n") == 2
        assert kernel.read(cdom, cfd) == b"+O"

    def test_accept_fd_exhaustion_tears_down_the_pending_conn(self):
        kernel = self._kernel("kernel.accept", "fd-exhaustion", on_call(1))
        server_domain = kernel.create_domain()
        listen_fd = kernel.listen(server_domain, ("srv", 1))
        client_domain = kernel.create_domain()
        client_fd = kernel.connect(client_domain, ("srv", 1))
        with pytest.raises(FdExhausted):
            kernel.accept(server_domain, listen_fd)
        # The client observes EOF, the listener is drained.
        assert kernel.read(client_domain, client_fd) == b""

    def test_connect_fd_exhaustion(self):
        kernel = self._kernel("kernel.connect", "fd-exhaustion", on_call(1))
        server_domain = kernel.create_domain()
        kernel.listen(server_domain, ("srv", 1))
        client_domain = kernel.create_domain()
        with pytest.raises(FdExhausted):
            kernel.connect(client_domain, ("srv", 1))

    def test_domain_filter_shields_client_syscalls(self):
        kernel = self._kernel("kernel.read", "econnreset", on_call(1))
        sdom, sfd, cdom, cfd = _connected_pair(kernel)
        OBS.chaos.domain_filter = {sdom}
        kernel.write(sdom, sfd, b"+OK\r\n")
        # Client-side read: filtered out, not counted, not faulted.
        assert kernel.read(cdom, cfd) == b"+OK\r\n"
        kernel.write(cdom, cfd, b"GET alpha\r\n")
        with pytest.raises(ConnectionReset):
            kernel.read(sdom, sfd)


# ---------------------------------------------------------------------------
# The invariant checker
# ---------------------------------------------------------------------------


def _obs(client, command, reply):
    return ClientObservation(client, command, reply)


class TestInvariants:
    def test_clean_history_passes(self):
        observations = [
            _obs("c0", "PUT a one", b"+OK\r\n"),
            _obs("c0", "GET a", b"one\r\n"),
            _obs("c1", "GET b", b"-ERR not found\r\n"),
        ]
        assert check_run(observations, {"a": "one"}) == []

    def test_acknowledged_write_must_not_be_lost(self):
        observations = [
            _obs("c0", "PUT a one", b"+OK\r\n"),
            _obs("c0", "GET a", b"-ERR not found\r\n"),
        ]
        problems = check_run(observations, {})
        assert any("not-found" in p for p in problems)

    def test_unacked_write_makes_state_uncertain_not_wrong(self):
        observations = [
            _obs("c0", "PUT a one", b"+OK\r\n"),
            _obs("c0", "PUT a two", None),       # lost in the fault
            _obs("c1", "GET a", b"two\r\n"),     # may have landed...
        ]
        assert check_run(observations, {"a": "two"}) == []
        observations[2] = _obs("c1", "GET a", b"one\r\n")  # ...or not
        assert check_run(observations, {"a": "one"}) == []
        observations[2] = _obs("c1", "GET a", b"three\r\n")  # but never this
        problems = check_run(observations, {"a": "three"})
        assert problems

    def test_reply_after_a_gap_is_flagged(self):
        observations = [
            _obs("c0", "GET a", None),
            _obs("c0", "GET a", b"-ERR not found\r\n"),
        ]
        problems = check_run(observations, {})
        assert any("gap" in p for p in problems)

    def test_final_state_outside_possible_values_is_flagged(self):
        observations = [_obs("c0", "PUT a one", b"+OK\r\n")]
        problems = check_run(observations, {"a": "nine"})
        assert any("final state" in p for p in problems)


# ---------------------------------------------------------------------------
# Observability integration
# ---------------------------------------------------------------------------


CORRUPT_PLAN = FaultPlan("corrupt", (
    Fault("mve.follower", "corrupt-record", on_call(2)),))


class TestObsIntegration:
    def test_chaos_inject_events_validate_and_are_counted(self):
        tracer = Tracer(experiment="chaos-obs")
        injector = ChaosInjector(CORRUPT_PLAN)
        with observing(tracer=tracer, chaos=injector):
            run_kv_update_scenario()
        assert injector.injections
        assert validate_trace_lines(tracer.to_jsonl_lines()) == []
        assert tracer.kind_tally().get("chaos.inject") == \
            len(injector.injections)
        snapshot = tracer.metrics.snapshot()
        assert snapshot["chaos.injected"]["value"] == \
            len(injector.injections)
        assert snapshot["chaos.site.mve.follower"]["value"] == 1

    def test_forensics_bundle_carries_the_injected_corruption(self):
        with observing(chaos=ChaosInjector(CORRUPT_PLAN)):
            result = run_kv_update_scenario()
        assert result.forensics is not None
        marker = CORRUPTION_MARKER.decode("latin-1")
        blob = json.dumps(result.forensics)
        expected_stream = json.dumps(result.forensics["expected_records"])
        assert "chaos-corrupt" in expected_stream
        # The diverging pair itself names the corrupted record: the
        # follower answered the corrupted request differently.
        diverging = json.dumps(result.forensics["diverging"])
        assert marker[1:] in blob
        assert diverging != "null"
