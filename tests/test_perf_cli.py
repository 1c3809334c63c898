"""Tests for ``python -m repro perf``, the deterministic gauge gate."""

import json
import os

import pytest

from repro.cli import main
from repro.perf import run_scenarios
from repro.perf.harness import GAUGES, SCHEMA
from repro.scenarios import SCENARIOS

BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_perf.json")


def test_scenario_registry_names_are_stable():
    # CI, docs, and --scenario choices all key off these names.
    assert set(SCENARIOS["perf"]) == {
        "single-leader", "mve-follower", "rule-heavy-mve-redis",
        "fig7-ring-2^5", "fig7-ring-2^8", "fig7-ring-2^11",
    }


def test_bench_dict_schema():
    bench = run_scenarios(["single-leader", "mve-follower"], ops=30,
                          quick=True)
    assert bench["_meta"]["schema"] == SCHEMA
    assert bench["_meta"]["quick"] is True
    for name in ("single-leader", "mve-follower"):
        entry = bench[name]
        assert set(entry) == set(GAUGES)
        assert entry["vrequests"] == 30
        assert entry["syscalls"] >= 30


def test_cli_writes_bench_json(tmp_path, capsys):
    out = tmp_path / "BENCH_perf.json"
    code = main(["perf", "--scenario", "single-leader", "--ops", "40",
                 "--json", "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "single-leader" in table
    assert "ring hwm" in table
    bench = json.loads(out.read_text())
    assert bench["_meta"]["schema"] == SCHEMA
    assert bench["single-leader"]["vrequests"] == 40
    # Only the requested scenario ran.
    assert "mve-follower" not in bench


def test_cli_without_json_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["perf", "--scenario", "single-leader", "--ops", "20"])
    assert code == 0
    assert not (tmp_path / "BENCH_perf.json").exists()
    assert "single-leader" in capsys.readouterr().out


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["perf", "--scenario", "no-such-scenario"])


def test_rule_heavy_scenario_exercises_rules():
    gauges = run_scenarios(["rule-heavy-mve-redis"], ops=30)[
        "rule-heavy-mve-redis"]
    assert gauges["vrequests"] == 30
    assert gauges["syscalls"] > 0


@pytest.mark.parametrize("baseline, complaint", [
    ("[]", "not a JSON object"),
    ("{}", "missing or malformed _meta"),
    # An older schema's gauges mean something else: never compared.
    ('{"_meta": {"schema": "repro-perf/4"}}',
     "schema is 'repro-perf/4', want 'repro-perf/5' — regenerate it "
     "with `python -m repro perf --json`"),
    # Was a TypeError out of sorted(), and a traceback.
    ('{"_meta": {"schema": "repro-perf/5", "quick": false, "ops": {}, '
     '"scenario_order": [1, "a"]}}',
     "_meta 'scenario_order'[0] is 1, expected a string"),
    # Below the JSON layer: a UnicodeDecodeError and a RecursionError.
    (b"\xff{}", "cannot decode: 'utf-8' codec can't decode byte 0xff in "
     "position 0: invalid start byte"),
    ("[" * 100_000 + "]" * 100_000,
     "cannot decode: nests too deeply to decode"),
])
def test_diff_refuses_a_baseline_it_cannot_trust(baseline, complaint,
                                                 tmp_path, capsys):
    # A truncated or wrong file must not green-light a regression.
    path = tmp_path / "baseline.json"
    path.write_bytes(baseline if isinstance(baseline, bytes)
                     else baseline.encode("utf-8"))
    with pytest.raises(SystemExit) as exit_info:
        main(["perf", "--scenario", "single-leader", "--ops", "20",
              "--diff", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unusable baseline {path}: {complaint}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before any scenario ran


def _edited_baseline(tmp_path, scenario, gauge):
    with open(BASELINE, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline[scenario][gauge] += 1
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(baseline))
    return str(path)


def test_diff_gate_holds_the_committed_baseline(tmp_path, capsys):
    # The gate itself, on the file the repo ships: clean at HEAD...
    assert main(["perf", "--diff", BASELINE]) == 0
    captured = capsys.readouterr()
    assert "--diff gate passed" in captured.out
    assert captured.out.count(" ok\n") == len(SCENARIOS["perf"])
    # ...and one edited gauge fails it, named by scenario and gauge.
    edited = _edited_baseline(tmp_path, "fig7-ring-2^8", "ring_stalls")
    assert main(["perf", "--diff", edited]) == 1
    captured = capsys.readouterr()
    assert ("--diff gate FAILED: fig7-ring-2^8: gauge 'ring_stalls' "
            "changed 1417 -> 1416") in captured.err
    assert "--diff gate passed" not in captured.out


def test_diff_with_scenario_compares_only_what_ran(tmp_path, capsys):
    # The drift is in a scenario that was not asked for: not compared,
    # and the rest of the baseline is not "missing" either.
    edited = _edited_baseline(tmp_path, "mve-follower", "syscalls")
    assert main(["perf", "--scenario", "single-leader",
                 "--diff", edited]) == 0
    captured = capsys.readouterr()
    assert "single-leader" in captured.out.split("diff vs")[1]
    assert "mve-follower" not in captured.out
    assert captured.err == ""


def test_diff_that_compares_nothing_fails(capsys):
    # --quick runs other op counts than the full-size baseline: every
    # scenario is ops-changed, so nothing was checked.
    assert main(["perf", "--quick", "--scenario", "single-leader",
                 "--diff", BASELINE]) == 1
    captured = capsys.readouterr()
    assert "ops-changed" in captured.out
    assert "--diff gate FAILED: no scenario was compared" in captured.err
    assert "--diff gate passed" not in captured.out
