"""Tests for fleet orchestration: sharding, routing, canary upgrades."""

import json

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import Fault, FaultPlan, on_call
from repro.chaos.scenarios import BuggyKVStoreV2, buggy_v2_factory
from repro.cluster import (
    FleetBudgetError,
    FleetOrchestrator,
    FleetSpec,
    NodeStatus,
)
from repro.cluster.fleet import (
    FLEET_SCHEMA,
    FleetSession,
    build_kv_fleet,
    run_fleet_scenario,
    validate_report,
)
from repro.errors import KernelError
from repro.obs.trace import Tracer
from repro.servers.kvstore import KVStoreV2, kv_rules_from_dsl
from repro.sim.engine import SECOND
from repro.sites import observing


def make_fleet(shards=2, replicas=2):
    spec = FleetSpec(shards, replicas, wave_size=1)
    kernel, shard_map, balancer = build_kv_fleet(spec)
    orchestrator = FleetOrchestrator(balancer, spec,
                                     rules=kv_rules_from_dsl())
    return kernel, shard_map, balancer, orchestrator


class TestFleetSpec:
    def test_shape_problems(self):
        assert FleetSpec(0, 3).shape_problems()
        assert FleetSpec(3, 0).shape_problems()
        assert FleetSpec(3, 3, wave_size=0).shape_problems()
        assert FleetSpec(3, 3).problems() == []

    def test_drain_problem_when_wave_exceeds_replicas(self):
        problems = FleetSpec(2, 1, wave_size=2).drain_problems()
        assert problems and "drain whole shards" in problems[0]

    def test_advisory_when_wave_equals_replicas(self):
        assert FleetSpec(3, 2, wave_size=2).advisories()
        assert FleetSpec(3, 3, wave_size=1).advisories() == []

    def test_waves_canary_first_then_chunks(self):
        assert FleetSpec(3, 3, wave_size=1).waves() == [(0,), (1,), (2,)]
        assert FleetSpec(2, 5, wave_size=2).waves() == [(0,), (1, 2),
                                                        (3, 4)]
        assert FleetSpec(4, 1).waves() == [(0,)]


class TestShardMap:
    def test_routing_is_stable_and_total(self):
        _, shard_map, _, _ = make_fleet(shards=3, replicas=2)
        keys = [f"key-{i}" for i in range(64)]
        first = [shard_map.shard_for(k).index for k in keys]
        second = [shard_map.shard_for(k).index for k in keys]
        assert first == second
        assert set(first) == {0, 1, 2}  # every shard owns some keys

    def test_nodes_are_shard_major_with_identity(self):
        _, shard_map, _, _ = make_fleet(shards=2, replicas=2)
        names = [node.name for node in shard_map.nodes()]
        assert names == ["s0-r0", "s0-r1", "s1-r0", "s1-r1"]
        node = shard_map.shards[1].nodes[0]
        assert (node.shard_index, node.replica_index) == (1, 0)


class TestFleetBalancer:
    def test_round_robin_within_shard(self):
        _, shard_map, balancer, _ = make_fleet(shards=1, replicas=3)
        shard = shard_map.shards[0]
        picks = [balancer.pick_replica(shard).name for _ in range(4)]
        assert picks == ["s0-r0", "s0-r1", "s0-r2", "s0-r0"]

    def test_skips_demoted_failed_and_draining(self):
        _, shard_map, balancer, _ = make_fleet(shards=1, replicas=3)
        shard = shard_map.shards[0]
        shard.nodes[0].status = NodeStatus.DEMOTED
        shard.nodes[1].status = NodeStatus.FAILED
        assert balancer.pick_replica(shard).name == "s0-r2"
        shard.nodes[1].status = NodeStatus.DRAINING
        assert balancer.pick_replica(shard).name == "s0-r2"

    def test_raises_when_no_replica_accepts(self):
        _, shard_map, balancer, _ = make_fleet(shards=1, replicas=2)
        shard = shard_map.shards[0]
        for node in shard.nodes:
            node.status = NodeStatus.FAILED
        with pytest.raises(KernelError):
            balancer.pick_replica(shard)


class TestFleetOrchestrator:
    def test_rejects_unusable_topology(self):
        _, _, balancer, _ = make_fleet()
        with pytest.raises(ValueError):
            FleetOrchestrator(balancer, FleetSpec(2, 1, wave_size=2))

    def test_good_round_updates_whole_fleet_within_budget(self):
        _, shard_map, _, orchestrator = make_fleet(shards=2, replicas=3)
        report = orchestrator.run_round(KVStoreV2, SECOND, label="2.0")
        assert report.outcome == "completed"
        assert report.updated == 6
        assert orchestrator.max_mve_pairs_per_shard == 1
        assert all(node.version_name == "2.0"
                   for node in shard_map.nodes())
        assert all(node.status is NodeStatus.SERVING
                   for node in shard_map.nodes())

    def test_buggy_canary_rolls_back_fleet_wide(self):
        _, shard_map, _, orchestrator = make_fleet(shards=3, replicas=2)
        report = orchestrator.run_round(BuggyKVStoreV2, SECOND,
                                        label="2.0-buggy")
        assert report.outcome == "rolled-back"
        assert report.demotions == 3
        assert report.updated == 0
        assert orchestrator.rollbacks == 1
        # The whole fleet is back on 1.0 and fully serving.
        assert all(node.version_name == "1.0"
                   for node in shard_map.nodes())
        assert all(node.status is NodeStatus.SERVING
                   for node in shard_map.nodes())
        # No replica is left holding a leader-follower pair.
        assert all(shard.mve_pairs() == 0 for shard in shard_map.shards)

    def test_budget_violation_raises(self):
        _, shard_map, _, orchestrator = make_fleet(shards=1, replicas=2)
        rules = kv_rules_from_dsl()
        for node in shard_map.shards[0].nodes:
            attempt = node.runtime.request_update(KVStoreV2(), SECOND,
                                                  rules=rules)
            assert attempt.ok
        with pytest.raises(FleetBudgetError):
            orchestrator._sample_budget()

    def test_fleet_events_are_traced(self):
        tracer = Tracer(experiment="fleet-test")
        with observing(tracer=tracer):
            _, _, _, orchestrator = make_fleet(shards=1, replicas=2)
            orchestrator.run_round(KVStoreV2, SECOND)
        kinds = {event.kind for event in tracer.events
                 if event.kind.startswith("fleet.")}
        assert {"fleet.round_start", "fleet.canary", "fleet.wave",
                "fleet.promote", "fleet.round_end"} <= kinds
        assert orchestrator.max_mve_pairs_per_shard == 1
        assert tracer.metrics()["fleet.canary"] == \
            {"type": "counter", "value": 1}


class TestFleetSession:
    def test_failover_preserves_acked_writes(self):
        _, shard_map, balancer, _ = make_fleet(shards=1, replicas=2)
        observations = []
        session = FleetSession("s0", balancer, observations)
        assert session.command("PUT alpha one", 0) == b"+OK\r\n"
        sticky = session._sticky[0]
        sticky.status = NodeStatus.FAILED
        # The write fanned out, so the surviving replica answers it.
        assert session.command("GET alpha", 1) == b"one\r\n"
        assert balancer.failovers == 1
        assert [obs.reply for obs in observations] \
            == [b"+OK\r\n", b"one\r\n"]


class TestFleetChaos:
    def test_replica_crash_mid_wave_is_survivable(self):
        plan = FaultPlan("crash", (
            Fault("fleet.replica", "crash", on_call(2)),))
        with observing(chaos=ChaosInjector(plan)):
            report = run_fleet_scenario()
        records = [record for round_payload in report["rounds"]
                   for record in round_payload["records"]]
        assert any(record["outcome"] == "crashed" for record in records)
        assert report["invariants"]["problems"] == []

    def test_injected_canary_divergence_demotes(self):
        plan = FaultPlan("divergence", (
            Fault("fleet.canary", "divergence", on_call(1),
                  param={"factory": buggy_v2_factory}),))
        with observing(chaos=ChaosInjector(plan)):
            _, shard_map, _, orchestrator = make_fleet(shards=2,
                                                       replicas=2)
            report = orchestrator.run_round(KVStoreV2, SECOND)
        assert report.outcome == "rolled-back"
        assert report.demotions == 1
        assert all(node.version_name == "1.0"
                   for node in shard_map.nodes())

    def test_balancer_partition_routes_around_replica(self):
        plan = FaultPlan("partition", (
            Fault("fleet.balancer", "partition", on_call(1)),))
        with observing(chaos=ChaosInjector(plan)):
            _, shard_map, balancer, _ = make_fleet(shards=1, replicas=2)
            node = balancer.pick_replica(shard_map.shards[0])
        assert node.name == "s0-r1"  # r0 was partitioned away
        assert balancer.partitions == 1


class TestFleetScenario:
    def test_report_shape_and_outcomes(self):
        report = run_fleet_scenario()
        assert report["schema"] == FLEET_SCHEMA
        assert [r["outcome"] for r in report["rounds"]] \
            == ["rolled-back", "completed"]
        assert report["invariants"]["problems"] == []
        assert report["max_mve_pairs_per_shard"] == 1
        assert report["rollbacks"] == 1
        assert set(report["final_versions"].values()) == {"2.0"}
        assert validate_report(report) == []

    def test_budget_and_rollback_hold_on_a_small_busy_fleet(self):
        # Fewer nodes and more traffic than the CLI's 3x3 default: still
        # one fleet-wide rollback and at most one MVE pair per shard.
        report = run_fleet_scenario(shards=2, replicas=2, commands=60)
        assert (report["rollbacks"], report["max_mve_pairs_per_shard"],
                report["failovers"]) == (1, 1, 0)
        assert len(report["observations"]) == 60

    def test_report_is_bit_identical_across_runs(self):
        first = json.dumps(run_fleet_scenario(seed=3), sort_keys=True)
        second = json.dumps(run_fleet_scenario(seed=3), sort_keys=True)
        assert first == second

    def test_seed_changes_traffic(self):
        first = json.dumps(run_fleet_scenario(seed=1), sort_keys=True)
        second = json.dumps(run_fleet_scenario(seed=2), sort_keys=True)
        assert first != second

    def test_validate_report_catches_damage(self):
        report = run_fleet_scenario()
        report["max_mve_pairs_per_shard"] = 2
        report["rounds"][0]["outcome"] = "exploded"
        problems = validate_report(report)
        assert any("max_mve_pairs_per_shard" in p for p in problems)
        assert any("exploded" in p for p in problems)
        # Misshapen sections are problems too, not exceptions.
        for key, damage in [("topology", []), ("rounds", [1]),
                            ("invariants", 3), ("distring", 1)]:
            assert any(key in p for p in
                       validate_report({**report, key: damage}))
        assert validate_report([report]) != []

    def test_openloop_traffic_keeps_outcomes_and_tags_report(self):
        report = run_fleet_scenario(openloop=True)
        assert [r["outcome"] for r in report["rounds"]] \
            == ["rolled-back", "completed"]
        assert report["traffic"] == {
            "mode": "open-loop", "process": "poisson",
            "rate_per_sec": 40.0, "key_distribution": "zipf"}
        assert validate_report(report) == []
        # The default path must stay byte-identical to the pinned
        # closed-loop report: no traffic section, different stream.
        default = run_fleet_scenario()
        assert "traffic" not in default
        assert json.dumps(default, sort_keys=True) \
            != json.dumps(report, sort_keys=True)

    def test_openloop_is_deterministic_per_seed(self):
        first = json.dumps(run_fleet_scenario(seed=3, openloop=True),
                           sort_keys=True)
        second = json.dumps(run_fleet_scenario(seed=3, openloop=True),
                            sort_keys=True)
        assert first == second


class TestFleetCLI:
    def test_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "FLEET_kvstore.json"
        code = main(["fleet", "canary-kvstore", "--report", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == FLEET_SCHEMA
        out = capsys.readouterr().out
        assert "rolled-back" in out and "completed" in out

    def test_cli_openloop_flag(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "FLEET_openloop.json"
        code = main(["fleet", "canary-kvstore", "--openloop",
                     "--report", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["traffic"]["mode"] == "open-loop"
        assert "traffic: open-loop" in capsys.readouterr().out


class TestFleetLint:
    def test_mve701_for_over_wide_wave(self):
        from repro.analysis.specs import lint_spec
        findings = lint_spec("app", "fleet_topologies",
                             FleetSpec(2, 1, wave_size=2))
        assert [f.code for f in findings] == ["MVE701"]

    def test_mve702_for_full_shard_wave(self):
        from repro.analysis.specs import lint_spec
        findings = lint_spec("app", "fleet_topologies",
                             FleetSpec(2, 2, wave_size=2))
        assert [f.code for f in findings] == ["MVE702"]

    def test_mve703_for_malformed_counts(self):
        from repro.analysis.specs import lint_spec
        findings = lint_spec("app", "fleet_topologies",
                             FleetSpec(0, 0, wave_size=0))
        assert {f.code for f in findings} == {"MVE703"}

    def test_bad_catalog_trips_mve701(self):
        from repro.analysis.cli import run_catalog
        from tests.fixtures.bad_catalog import catalog
        report = run_catalog(catalog())
        assert any(f.code == "MVE701" for f in report.findings)

    def test_default_catalog_is_fleet_clean(self):
        from repro.apps import default_catalog
        from repro.analysis.cli import run_app
        report = run_app(default_catalog()["kvstore"])
        assert not any(f.code.startswith("MVE7")
                       for f in report.findings)
