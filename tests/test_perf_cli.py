"""Tests for the ``python -m repro perf`` wall-clock benchmark harness."""

import json

import pytest

from repro.perf import SCENARIOS, run_scenarios
from repro.cli import main
from repro.perf.harness import SCHEMA, to_bench_dict


def test_scenario_registry_names_are_stable():
    # CI, docs, and --scenario choices all key off these names.
    assert set(SCENARIOS) == {
        "single-leader", "mve-follower", "rule-heavy-mve-redis",
        "rules-redis-stream", "rules-vsftpd-stream",
        "fig7-ring-2^5", "fig7-ring-2^8", "fig7-ring-2^11",
        "chaos-recovery-kvstore", "fleet-canary-upgrade",
        "chaos-campaign-parallel", "openloop-upgrade-waves",
        "distributed-ring-kvstore",
    }


def test_run_scenarios_reports_positive_rates():
    results = run_scenarios(["single-leader"], ops=40, repeat=1)
    assert len(results) == 1
    result = results[0]
    assert result.name == "single-leader"
    assert result.vrequests == 40
    assert result.syscalls >= result.vrequests
    assert result.wall_s > 0
    assert result.vreq_per_s > 0
    assert result.syscalls_per_s > result.vreq_per_s


def test_bench_dict_schema():
    results = run_scenarios(["single-leader", "mve-follower"],
                            ops=30, repeat=1)
    bench = to_bench_dict(results, quick=True)
    assert bench["_meta"]["schema"] == SCHEMA
    assert bench["_meta"]["quick"] is True
    for name in ("single-leader", "mve-follower"):
        entry = bench[name]
        assert set(entry) >= {"wall_s", "vreq_per_s", "syscalls_per_s"}
        assert entry["vreq_per_s"] > 0


def test_cli_writes_bench_json(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    code = main(["perf", "--scenario", "single-leader", "--ops", "40",
                 "--repeat", "1", "--json", "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "single-leader" in table
    assert "vreq/s" in table
    bench = json.loads(out.read_text())
    assert bench["_meta"]["schema"] == SCHEMA
    assert bench["single-leader"]["vreq_per_s"] > 0
    # Only the requested scenario ran.
    assert "mve-follower" not in bench


def test_cli_without_json_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["perf", "--scenario", "single-leader", "--ops", "20",
                 "--repeat", "1"])
    assert code == 0
    assert not (tmp_path / "BENCH_perf.json").exists()
    assert "single-leader" in capsys.readouterr().out


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["perf", "--scenario", "no-such-scenario"])


def test_rule_heavy_scenario_exercises_rules():
    results = run_scenarios(["rule-heavy-mve-redis"], ops=30, repeat=1)
    assert results[0].vrequests == 30
    assert results[0].syscalls > 0


@pytest.mark.parametrize("baseline, complaint", [
    ("[]", "not a JSON object"),
    ("{}", "missing or malformed _meta"),
])
def test_diff_refuses_a_baseline_it_cannot_trust(baseline, complaint,
                                                 tmp_path, capsys):
    # A truncated or wrong file must not green-light a regression.
    path = tmp_path / "baseline.json"
    path.write_text(baseline)
    with pytest.raises(SystemExit) as exit_info:
        main(["perf", "--scenario", "single-leader", "--ops", "20",
              "--diff", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unusable baseline {path}: {complaint}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before any scenario ran
