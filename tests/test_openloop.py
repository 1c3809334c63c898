"""Tests for the open-loop workload engine (repro.workloads.openloop).

The property tests pin the three guarantees every downstream consumer
(the scenario driver, the fleet's --openloop mode, the perf gauges)
leans on: arrival streams are a deterministic pure function of the
seed, arrival times are strictly increasing at the offered rate, and
the flyweight pool's live-object count is bounded by the connection
count no matter how large the logical population is.
"""

import bisect
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import Fault, FaultPlan, at_time, on_call
from repro.sim.engine import SECOND
from repro.sim.rng import RngStreams
from repro.sites import observing
from repro.workloads.arrivals import (
    MmppArrivals,
    PoissonArrivals,
    arrival_problems,
    build_arrivals,
)
from repro.workloads.keyspace import (
    UniformKeys,
    ZipfKeys,
    build_keys,
    key_problems,
    request_templates,
)
from repro.workloads.openloop import (
    LoadSpec,
    OpenLoopGenerator,
    spec_problems,
)
from repro.workloads.pool import FlyweightPool

seeds = st.integers(min_value=0, max_value=2**31)


def _rng(seed, name="t"):
    return RngStreams(seed).stream(name)


# -- arrivals -----------------------------------------------------------------

class TestArrivalProperties:
    @given(seed=seeds, rate=st.sampled_from([50.0, 1000.0, 25_000.0]))
    @settings(max_examples=25, deadline=None)
    def test_poisson_deterministic_and_increasing(self, seed, rate):
        first = list(PoissonArrivals(rate).times(_rng(seed), 300))
        again = list(PoissonArrivals(rate).times(_rng(seed), 300))
        assert first == again
        assert all(b > a for a, b in zip(first, first[1:]))
        assert all(isinstance(t, int) and t >= 1 for t in first)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_mmpp_deterministic_and_increasing(self, seed):
        mmpp = MmppArrivals(2000.0, 20_000.0)
        first = list(mmpp.times(_rng(seed), 400))
        again = list(mmpp.times(_rng(seed), 400))
        assert first == again
        assert all(b > a for a, b in zip(first, first[1:]))

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_poisson_empirical_rate_within_tolerance(self, seed):
        rate = 4000.0
        times = list(PoissonArrivals(rate).times(_rng(seed), 2000))
        empirical = len(times) * SECOND / times[-1]
        # 2000 exponential gaps: the mean estimator's sigma is ~2.2%,
        # so +/-10% is a >4-sigma band — loose enough to never flake,
        # tight enough to catch a units or off-by-rate bug.
        assert rate * 0.9 <= empirical <= rate * 1.1

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_mmpp_rate_between_calm_and_burst(self, seed):
        mmpp = MmppArrivals(1000.0, 16_000.0)
        times = list(mmpp.times(_rng(seed), 2000))
        empirical = len(times) * SECOND / times[-1]
        assert 1000.0 * 0.9 <= empirical <= 16_000.0 * 1.1

    def test_start_ns_offsets_the_stream(self):
        base = list(PoissonArrivals(100.0).times(_rng(3), 50))
        offset = list(PoissonArrivals(100.0).times(_rng(3), 50,
                                                   start_ns=7_000))
        assert offset == [t + 7_000 for t in base]

    def test_arrival_problems_vocabulary(self):
        assert arrival_problems({"process": "poisson",
                                 "rate_per_sec": 10.0}) == []
        assert arrival_problems({"process": "uniform?",
                                 "rate_per_sec": 10.0})
        assert arrival_problems({"process": "poisson",
                                 "rate_per_sec": 0})
        assert arrival_problems({"process": "mmpp", "rate_per_sec": 5.0,
                                 "burst_rate_per_sec": -1})
        assert arrival_problems({"process": "mmpp", "rate_per_sec": 5.0,
                                 "burst_rate_per_sec": 50.0,
                                 "dwell_ns": 0})

    def test_build_arrivals_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            build_arrivals({"process": "bogus"})


# -- keyspace -----------------------------------------------------------------

class TestKeyspace:
    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_samples_stay_in_range(self, seed):
        uniform, zipf = UniformKeys(500), ZipfKeys(500, exponent=1.2)
        u_rng, z_rng = _rng(seed, "u"), _rng(seed, "z")
        for _ in range(200):
            assert 0 <= uniform.sample(u_rng) < 500
            assert 0 <= zipf.sample(z_rng) < 500

    def test_zipf_is_head_heavy(self):
        zipf = ZipfKeys(10_000, exponent=1.1)
        rng = _rng(1)
        draws = [zipf.sample(rng) for _ in range(4000)]
        head = sum(1 for k in draws if k < 100)
        # Under zipf(1.1) the first 100 of 10,000 ranks carry well over
        # a third of the mass; uniform would put 1% there.
        assert head / len(draws) > 0.3

    @given(keyspace=st.integers(min_value=1, max_value=300),
           exponent=st.floats(min_value=0.01, max_value=4.0), seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_shared_cdf_is_the_per_instance_loop(self, keyspace, exponent,
                                                 seed):
        # The CDF is computed once per (keyspace, exponent) and shared;
        # the loop each instance used to run is the reference, float for
        # float, so the same draws pick the same ranks.
        cdf, total = [], 0.0
        for rank in range(keyspace):
            total += 1.0 / float(rank + 1) ** exponent
            cdf.append(total)
        first, again = ZipfKeys(keyspace, exponent), \
            ZipfKeys(keyspace, exponent)
        assert list(first._cdf) == cdf
        assert again._cdf is first._cdf
        rng, reference = _rng(seed), _rng(seed)
        for _ in range(50):
            assert first.sample(rng) == bisect.bisect_left(
                cdf, reference.random() * cdf[-1])

    def test_key_problems_vocabulary(self):
        assert key_problems({"distribution": "uniform",
                             "keyspace": 10}) == []
        assert key_problems({"distribution": "zipfian", "keyspace": 10})
        assert key_problems({"distribution": "zipf", "keyspace": 10,
                             "exponent": 0.0})
        assert key_problems({"distribution": "zipf", "keyspace": 10,
                             "exponent": 4.5})
        assert key_problems({"distribution": "uniform", "keyspace": 0})

    def test_build_keys_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            build_keys({"distribution": "zipf", "keyspace": 10,
                        "exponent": 99.0})


# -- the flyweight pool -------------------------------------------------------

class TestFlyweightPool:
    @given(seed=seeds,
           population=st.sampled_from([64, 10_000, 1_000_000]),
           connections=st.sampled_from([1, 4, 32]))
    @settings(max_examples=25, deadline=None)
    def test_memory_bound_is_connections(self, seed, population,
                                         connections):
        # The headline flyweight property: millions of logical clients
        # cost O(connections) live objects, before and after any number
        # of assignments (= in-flight bound + churn never leaks).
        pool = FlyweightPool(population, connections, _rng(seed))
        assert pool.tracked_objects() == connections
        for at_ns in range(0, 400_000, 1_000):
            send_ns, slot, client = pool.assign(at_ns)
            assert send_ns >= at_ns
            assert 0 <= slot < connections
            assert 0 <= client < population
            assert pool.tracked_objects() <= connections
        assert pool.tracked_objects() == connections

    def test_churn_counters(self):
        pool = FlyweightPool(1_000_000, 2, _rng(5), session_requests=3,
                             reconnect_ns=1_000)
        for at_ns in range(0, 100_000, 100):
            pool.assign(at_ns)
        assert pool.sessions_started > 2  # slots churned past session 1
        # Every reconnect closed a started session; at most one session
        # per slot is still open (a session can end on its last assign
        # without the replacement having started yet).
        assert 0 <= pool.sessions_started - pool.reconnects <= 2
        assert pool.deferred_sends > 0  # reconnect windows deferred sends

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            FlyweightPool(10, 0, _rng(1))
        with pytest.raises(ValueError):
            FlyweightPool(3, 4, _rng(1))


# -- the LoadSpec DSL ---------------------------------------------------------

class TestLoadSpec:
    def test_default_spec_is_clean(self):
        assert LoadSpec().problems() == []

    def test_round_trips_through_dict(self):
        spec = LoadSpec(name="rt", population=99, connections=3,
                        requests=17)
        assert LoadSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_ignores_unknown_fields(self):
        spec = LoadSpec.from_dict({"name": "x", "schema_version": 9})
        assert spec.name == "x"

    def test_problem_categories_map_to_lint_codes(self):
        bad = LoadSpec(arrival={"process": "nope", "rate_per_sec": -1},
                       keys={"distribution": "zipf", "keyspace": 10,
                             "exponent": 7.0},
                       population=2, connections=8, requests=0)
        categories = {category for category, _ in spec_problems(bad)}
        assert categories == {"arrival-process", "arrival-rate",
                              "zipf-exponent", "churn", "shape"}

    def test_generator_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            OpenLoopGenerator(LoadSpec(requests=0), seed=1)


# -- the generator ------------------------------------------------------------

class TestOpenLoopGenerator:
    def test_deterministic_per_seed(self):
        spec = LoadSpec(requests=400, connections=8, population=10_000)
        first = list(OpenLoopGenerator(spec, seed=9).events())
        again = list(OpenLoopGenerator(spec, seed=9).events())
        other = list(OpenLoopGenerator(spec, seed=10).events())
        assert first == again
        assert first != other

    def test_events_sorted_and_complete(self):
        # High rate + slow reconnects: arrivals regularly land on a
        # slot mid-reconnect, so sends get deferred and reordered.
        spec = LoadSpec(requests=500, connections=4, population=1_000,
                        session_requests=5, reconnect_ns=1_000_000,
                        arrival={"process": "poisson",
                                 "rate_per_sec": 50_000.0})
        generator = OpenLoopGenerator(spec, seed=2)
        events = list(generator.events())
        assert len(events) == 500
        assert generator.offered == 500
        sends = [event.at_ns for event in events]
        assert sends == sorted(sends)
        assert generator.pool.deferred_sends > 0  # reorder heap exercised
        assert {event.seq for event in events} == set(range(500))

    def test_shared_stream_name_shares_arrival_skeleton(self):
        spec = LoadSpec(requests=300)
        a = list(OpenLoopGenerator(spec, 4, stream="cellpair").events())
        b = list(OpenLoopGenerator(spec, 4, stream="cellpair").events())
        c = list(OpenLoopGenerator(spec, 4, stream="other").events())
        assert a == b
        assert [e.at_ns for e in a] != [e.at_ns for e in c]

    def test_chaos_drop_swallows_arrivals(self):
        spec = LoadSpec(requests=100)
        # at-time(0) stays eligible on every call, so count=5 swallows
        # the first five arrivals (on-call matches one exact index).
        plan = FaultPlan("p", (
            Fault("openloop.arrival", "drop", at_time(0, count=5)),))
        with observing(chaos=ChaosInjector(plan)):
            generator = OpenLoopGenerator(spec, seed=1)
            events = list(generator.events())
        assert generator.dropped == 5
        assert len(events) == 95

    def test_chaos_burst_multiplies_arrivals(self):
        spec = LoadSpec(requests=100)
        plan = FaultPlan("p", (
            Fault("openloop.arrival", "burst", on_call(10),
                  param={"extra": 4}),))
        injector = ChaosInjector(plan)
        with observing(chaos=injector):
            generator = OpenLoopGenerator(spec, seed=1)
            events = list(generator.events())
        assert [(i.site, i.kind) for i in injector.injections] == \
            [("openloop.arrival", "burst")]
        assert generator.offered == 104
        assert len(events) == 104

    def test_format_request_protocols(self):
        spec = LoadSpec(requests=40)
        events = list(OpenLoopGenerator(spec, seed=6).events())
        read = next(e for e in events if e.is_read)
        write = next(e for e in events if not e.is_read)
        kv_read, kv_write = request_templates("kvstore", "ol-", "v")
        assert kv_read % read.key == b"GET ol-%d\r\n" % read.key
        assert kv_write % write.key == b"PUT ol-%d v\r\n" % write.key
        _, redis_write = request_templates("redis", "ol-", "v")
        assert (redis_write % write.key).startswith(b"SET ol-")
        _, mc_write = request_templates("memcached", "ol-", "vv")
        assert b"\r\nvv\r\n" in mc_write % write.key
        with pytest.raises(ValueError):
            request_templates("ftp", "ol-", "v")


# -- the scenario driver + report --------------------------------------------

@pytest.fixture(scope="module")
def quick_report():
    from repro.workloads.openloop_scenarios import run_openloop_scenario
    return run_openloop_scenario("kvstore", seed=1, quick=True)


class TestOpenLoopScenario:
    def test_report_is_schema_valid(self, quick_report):
        from repro.workloads.openloop_scenarios import (
            validate_openloop_report)
        assert validate_openloop_report(quick_report) == []

    def test_contrast_checks_hold(self, quick_report):
        assert {check["check"]: check["ok"]
                for check in quick_report["checks"]} == {
            "closed-loop-understates-restart-p99": True,
            "restart-breaches-p99-budget": True,
            "mvedsua-within-p99-budget": True,
            "availability": True,
            "no-dropped-arrivals": True,
        }
        assert quick_report["ok"] is True

    def test_identical_arrival_skeleton_across_cells(self, quick_report):
        rows = quick_report["cells"]
        # All six cells consumed the same arrival stream: same offered
        # count, same request count, nothing dropped anywhere.
        assert len({row["offered"] for row in rows}) == 1
        assert len({row["requests"] for row in rows}) == 1
        assert all(row["dropped"] == 0 for row in rows)

    def test_flyweight_bound_survives_the_full_stack(self, quick_report):
        for row in quick_report["cells"]:
            assert row["tracked_objects"] <= \
                quick_report["spec"]["connections"]
            assert row["population"] == 1_000_000

    def test_workers_report_is_byte_identical(self, quick_report):
        from repro.workloads.openloop_scenarios import (
            run_openloop_scenario)
        parallel = run_openloop_scenario("kvstore", seed=1, quick=True,
                                         workers=2)
        assert json.dumps(parallel, sort_keys=False) == \
            json.dumps(quick_report, sort_keys=False)

    def test_validator_catches_flyweight_breach(self, quick_report):
        from repro.workloads.openloop_scenarios import (
            validate_openloop_report)
        broken = json.loads(json.dumps(quick_report))
        broken["cells"][0]["tracked_objects"] = 10_000
        assert any("flyweight" in problem
                   for problem in validate_openloop_report(broken))

    def test_validator_catches_schema_drift(self, quick_report):
        from repro.workloads.openloop_scenarios import (
            validate_openloop_report)
        broken = json.loads(json.dumps(quick_report))
        broken["schema"] = "repro-openloop/0"
        assert validate_openloop_report(broken)
        # Misshapen sections are problems too, not exceptions.
        for key, damage in [("cells", [5]), ("spec", []), ("checks", 1)]:
            assert any(key in problem for problem in
                       validate_openloop_report({**quick_report,
                                                 key: damage}))
        assert validate_openloop_report([quick_report]) != []


# -- the stream the six cells share ------------------------------------------

SCENARIO_SIZES = [(scenario, quick) for scenario in ("kvstore", "redis")
                  for quick in (False, True)]


class TestSharedStream:
    """Each scenario's stream is built once and served by all six cells;
    a chaos cell builds its own."""

    @pytest.mark.parametrize("scenario, quick", SCENARIO_SIZES)
    def test_memo_equals_a_fresh_build(self, scenario, quick):
        from repro.workloads.openloop_scenarios import (
            scenario_spec, shared_stream)
        memo = shared_stream(scenario, 1, quick)
        assert shared_stream(scenario, 1, quick) is memo
        cold = shared_stream.__wrapped__(scenario, 1, quick)
        assert cold is not memo
        assert cold == memo
        # ...and both are what one generator pass gives.
        spec = scenario_spec(scenario, quick)
        generator = OpenLoopGenerator(spec, 1,
                                      stream=f"openloop.{scenario}")
        assert memo.events == tuple(generator.events())
        read, write = request_templates(scenario, "ol-",
                                        "v" * spec.value_size)
        assert memo.payloads == tuple(
            (read if event.is_read else write) % event.key
            for event in memo.events)
        pool = generator.pool
        assert (memo.offered, memo.dropped, memo.sessions,
                memo.reconnects, memo.deferred_sends,
                memo.tracked_objects) == (
            generator.offered, generator.dropped, pool.sessions_started,
            pool.reconnects, pool.deferred_sends, pool.tracked_objects())

    #: sha256 of each scenario's joined wire payloads at seed 101 (the
    #: seed hostbench's openloop-upgrade-waves runs): pinned before the
    #: payloads moved onto the shared request templates.
    PAYLOADS_GOLDEN = {
        ("kvstore", False): "51931427c5de598aa0ad882c5b7add9f"
                            "b9201ca632f00dad3e4e2748b547cd2e",
        ("kvstore", True): "6fa51d2261b1e2ccf9590cc163ff4481"
                           "b2f76d3ffa531b6e241ed4ed10a1415c",
        ("redis", False): "73451b720f7223a9a671c414073ec15e"
                          "a460928a6a60123427f223c77b026388",
        ("redis", True): "42d2757c3fed067bbf8e5a18cf3ac59a"
                         "67c70d8b48c7b75d4d01e309dd270b6c",
    }

    @pytest.mark.parametrize("scenario, quick", SCENARIO_SIZES)
    def test_payloads_match_golden_hash(self, scenario, quick):
        import hashlib
        from repro.workloads.openloop_scenarios import shared_stream
        payloads = shared_stream.__wrapped__(scenario, 101, quick).payloads
        assert hashlib.sha256(b"".join(payloads)).hexdigest() == \
            self.PAYLOADS_GOLDEN[(scenario, quick)]

    @pytest.mark.parametrize("scenario", ["kvstore", "redis"])
    def test_record_cannot_be_changed_in_place(self, scenario):
        from repro.workloads.openloop_scenarios import (
            CELLS, run_openloop_cell, shared_stream)
        shared = shared_stream(scenario, 1, True)
        assert isinstance(shared.events, tuple)
        assert isinstance(shared.payloads, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.events[0].key = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.offered = 0
        preload = dict(shared.preload)
        for cell in range(len(CELLS)):
            run_openloop_cell(scenario, cell, 1, True)
        assert shared_stream(scenario, 1, True) is shared
        assert shared.preload == preload

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_memo_report_is_byte_identical(self, workers,
                                                monkeypatch):
        from repro.workloads import openloop_scenarios
        from repro.workloads.openloop_scenarios import (
            run_openloop_scenario, shared_stream)
        # Cold: every cell builds its own stream, as before the memo.
        with monkeypatch.context() as patch:
            patch.setattr(openloop_scenarios, "shared_stream",
                          shared_stream.__wrapped__)
            cold = run_openloop_scenario("redis", seed=3, quick=True,
                                         workers=workers, slo=True)
        # Warm: forked workers inherit the memo built here.
        shared_stream("redis", 3, True)
        warm = run_openloop_scenario("redis", seed=3, quick=True,
                                     workers=workers, slo=True)
        assert json.dumps(warm, sort_keys=False) == \
            json.dumps(cold, sort_keys=False)

    def test_chaos_cells_bypass_the_memo(self):
        from repro.scenarios import run_cell
        from repro.workloads.openloop_scenarios import (
            scenario_spec, shared_stream)
        shared_stream.cache_clear()
        clean = run_cell("openloop", "kvstore", 0, 1, True)
        memo = shared_stream("kvstore", 1, True)
        arrivals = scenario_spec("kvstore", True).requests
        plans = {
            "drop": (Fault("openloop.arrival", "drop",
                           at_time(0, count=5)), arrivals, 5),
            "burst": (Fault("openloop.arrival", "burst", on_call(10),
                            param={"extra": 4}), arrivals + 4, 0),
        }
        for kind, (fault, offered, dropped) in plans.items():
            injector = ChaosInjector(FaultPlan(kind, (fault,)))
            with observing(chaos=injector):
                faulted = run_cell("openloop", "kvstore", 0, 1, True)
            assert injector.site_calls["openloop.arrival"] == arrivals
            assert (faulted["offered"], faulted["dropped"]) == \
                (offered, dropped), kind
            assert faulted["requests"] == offered - dropped, kind
            assert shared_stream("kvstore", 1, True) is memo
        assert shared_stream.cache_info().currsize == 1
        assert run_cell("openloop", "kvstore", 0, 1, True) == clean


def test_redis_preload_is_readable_by_redis():
    """The warm keys carry Redis's own ``(type, value)`` entries."""
    from repro.workloads.openloop_scenarios import _stack, shared_stream
    stack = _stack("redis", "native")
    stack.server.heap["db"].update(shared_stream("redis", 1, True).preload)
    client = stack.client()
    assert client.request(stack.runtime, b"GET warm-1\r\n", SECOND)[0] \
        == b"$1\r\nw\r\n"
    assert client.request(stack.runtime, b"TYPE warm-1\r\n",
                          2 * SECOND)[0] == b"+string\r\n"
