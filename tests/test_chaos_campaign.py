"""The chaos campaign: grid generation, outcome classification, the
``repro-chaos/1`` report, and the ``python -m repro chaos`` CLI."""

import json

import pytest

from repro.chaos import Fault, FaultPlan, at_time, on_call
from repro.chaos.campaign import (
    CHAOS_SCHEMA,
    OUTCOMES,
    cell_entry,
    classify,
    default_grid,
    probe_site_calls,
    recovery_at,
    run_campaign,
    run_cell,
    validate_report,
)
from repro.cli import main
from repro.chaos.plans import NAMED_PLANS
from repro.chaos.scenarios import run_kv_update_scenario
from repro.net.ring_wire import decode_records


@pytest.fixture(scope="module")
def full_report():
    return run_campaign("kvstore", seed=1)


@pytest.fixture(scope="module")
def golden():
    return run_kv_update_scenario()


# ---------------------------------------------------------------------------
# The golden baseline and the grid
# ---------------------------------------------------------------------------


class TestGoldenAndGrid:
    def test_golden_run_finalizes_on_the_new_version(self, golden):
        assert golden.timeline.succeeded()
        assert golden.timeline.ended_by == "finalize"
        assert golden.final_version == "2.0"
        assert all(reply is not None for reply in golden.replies())

    def test_probe_reaches_every_site_family(self):
        calls = probe_site_calls()
        for site in ("kernel.read", "kernel.write", "kernel.accept",
                     "mve.leader", "mve.follower", "mve.ring",
                     "dsu.update", "dsu.quiesce", "dsu.transform"):
            assert calls.get(site, 0) >= 1, site

    def test_default_grid_is_valid_and_large_enough(self):
        grid = default_grid(probe_site_calls(), seed=1)
        assert len(grid) >= 200
        for fault in grid:
            assert FaultPlan("cell", (fault,)).validate() == []
        # Cell names are unique: they key the report's grid entries.
        names = [fault.describe() for fault in grid]
        assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# Outcome classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_never_triggered_fault_is_masked(self, golden):
        result = run_cell(FaultPlan("never", (
            Fault("kernel.read", "econnreset", on_call(9999)),)))
        outcome, detail = classify(result, golden)
        assert outcome == "masked"
        assert detail == "fault never triggered"

    def test_corrupt_record_rolls_back_with_forensics(self, golden):
        result = run_cell(FaultPlan("corrupt", (
            Fault("mve.follower", "corrupt-record", on_call(2)),)))
        outcome, detail = classify(result, golden)
        assert outcome == "recovered-rollback"
        assert result.forensics is not None
        assert result.final_version == "1.0"

    def test_leader_crash_during_mve_promotes_the_follower(self, golden):
        result = run_cell(FaultPlan("crash", (
            Fault("mve.leader", "crash", at_time(6_500_000_000)),)))
        outcome, detail = classify(result, golden)
        assert outcome == "recovered-demotion"
        # The old leader crashed while outdated: the new version leads,
        # so the update succeeded.
        assert result.timeline.ended_by == "leader-crash"
        assert result.timeline.succeeded()
        assert result.final_version == "2.0"

    def test_slow_quiescence_aborts_cleanly(self, golden):
        result = run_cell(FaultPlan("slow", (
            Fault("dsu.quiesce", "delay", on_call(1),
                  param={"delay_ns": 60_000_000}),)))
        outcome, detail = classify(result, golden)
        assert outcome == "recovered-rollback"
        assert not result.update_ok

    def test_client_facing_reset_is_honest_availability_loss(self, golden):
        result = run_cell(FaultPlan("reset", (
            Fault("kernel.read", "econnreset", on_call(1)),)))
        outcome, detail = classify(result, golden)
        assert outcome == "availability-loss"

    def test_negative_recovery_delta_is_a_loud_ordering_anomaly(self, golden):
        plan = FaultPlan("corrupt", (
            Fault("mve.follower", "corrupt-record", on_call(2)),))
        result = run_cell(plan)
        assert result.injections and recovery_at(result) is not None
        assert recovery_at(result) == result.timeline.rolled_back_at
        first_at = result.injections[0]["at"]
        entry = cell_entry("corrupt", plan, result, golden)
        # The raw signed delta is recorded, not clamped to zero.
        assert entry["recovery_latency_ns"] == recovery_at(result) - first_at
        assert entry["outcome"] != "ordering-anomaly"
        # Rewind the recovery before the injection: the classifier must
        # not normalise it away.
        result.timeline.rolled_back_at = first_at - 7
        anomaly = cell_entry("corrupt", plan, result, golden)
        assert anomaly["outcome"] == "ordering-anomaly"
        assert anomaly["recovery_latency_ns"] == -7
        assert "predates" in anomaly["detail"]


# ---------------------------------------------------------------------------
# The full campaign and its report
# ---------------------------------------------------------------------------


class TestCampaignReport:
    def test_campaign_covers_the_grid_with_no_violations(self, full_report):
        assert full_report["schema"] == CHAOS_SCHEMA
        assert full_report["cells"] >= 200
        assert full_report["outcomes"]["invariant-violation"] == 0
        # A negative recovery delta would be a simulator causality bug.
        assert full_report["outcomes"]["ordering-anomaly"] == 0
        # Every healthy outcome class is actually exercised.
        for outcome in OUTCOMES:
            if outcome in ("ordering-anomaly", "invariant-violation"):
                continue
            assert full_report["outcomes"][outcome] > 0, outcome

    def test_report_is_bit_identical_across_runs(self, full_report):
        again = run_campaign("kvstore", seed=1)
        first = json.dumps(full_report, sort_keys=True)
        second = json.dumps(again, sort_keys=True)
        assert first == second

    def test_report_validates_and_tampering_is_caught(self, full_report):
        assert validate_report(full_report) == []
        tampered = json.loads(json.dumps(full_report))
        tampered["outcomes"]["masked"] += 1
        assert any("tally" in p for p in validate_report(tampered))
        tampered = json.loads(json.dumps(full_report))
        tampered["schema"] = "repro-chaos/0"
        assert any("schema" in p for p in validate_report(tampered))
        # A misshapen cell is a problem too, not an exception.
        tampered = json.loads(json.dumps(full_report))
        tampered["grid"][3]["outcome"] = []
        assert any("'grid'[3] 'outcome'" in p
                   for p in validate_report(tampered))

    def test_rollback_cells_capture_forensics(self, full_report):
        corrupt = [entry for entry in full_report["grid"]
                   if entry["kind"] == "corrupt-record"
                   and entry["outcome"] == "recovered-rollback"]
        assert corrupt
        assert any("forensics" in entry for entry in corrupt)
        # Every record of every bundle reads back through the ring
        # wire's decoder.
        for entry in full_report["grid"]:
            bundle = entry.get("forensics")
            if bundle is None:
                continue
            pair = [record for record in bundle["diverging"].values()
                    if record is not None]
            for records in (pair, bundle["ring_last_k"],
                            bundle["ring_pending"],
                            bundle["expected_records"],
                            bundle["issued_records"]):
                assert len(decode_records(records)) == len(records)

    def test_recovery_latency_is_reported_for_dsu_faults(self, full_report):
        e1 = [entry for entry in full_report["grid"]
              if entry["name"] == "dsu.update/buggy-version@on-call:1"]
        assert len(e1) == 1
        # Injected at the update, detected at the first post-update
        # replay: a strictly positive virtual-time recovery latency.
        assert e1[0]["recovery_latency_ns"] > 0

    def test_single_plan_campaign_runs_one_cell(self):
        plan = FaultPlan("just-one", (
            Fault("mve.follower", "crash", on_call(1)),))
        report = run_campaign("kvstore", plan=plan)
        assert report["cells"] == 1
        assert report["grid"][0]["name"] == "just-one"
        assert validate_report(report) == []

    def test_max_cells_truncates_deterministically(self, full_report):
        small = run_campaign("kvstore", seed=1, max_cells=10)
        assert small["cells"] == 10
        names = [entry["name"] for entry in small["grid"]]
        assert names == [entry["name"]
                         for entry in full_report["grid"][:10]]


# ---------------------------------------------------------------------------
# Named plans (E1/E2/E3)
# ---------------------------------------------------------------------------


class TestNamedPlans:
    def test_shipped_plans_validate(self):
        assert set(NAMED_PLANS) == {"e1-new-code", "e2-transform"}
        for name, factory in NAMED_PLANS.items():
            plan = factory()
            assert plan.validate() == [], name


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_smoke_run_writes_a_valid_report(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        code = main(["chaos", "kvstore", "--max-cells", "20",
                     "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos campaign" in out
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        assert payload["cells"] == 20

    def test_plan_file_runs_as_a_single_cell(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.py"
        plan_path.write_text(
            "from repro.chaos import Fault, FaultPlan, on_call\n"
            "def plan():\n"
            "    return FaultPlan('file-plan', "
            "(Fault('mve.follower', 'crash', on_call(1)),))\n")
        report_path = tmp_path / "chaos.json"
        code = main(["chaos", "kvstore", "--plan", str(plan_path),
                     "--report", str(report_path)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["cells"] == 1
        assert payload["grid"][0]["name"] == "file-plan"

    def test_unknown_scenario_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "nosuch"])
        assert "invalid choice" in capsys.readouterr().err
