"""The ``python -m repro trace`` CLI and its companion scenarios."""

import json
import re

import pytest

from repro.cli import main
from repro.obs import Tracer, validate_trace_file
from repro.obs.forensics import FORENSICS_LAST_K
from repro.scenarios import SCENARIOS, run_cell
from repro.sites import observing


def test_trace_scenarios_cover_the_experiments():
    assert set(SCENARIOS["trace"]) == {"fig6", "fig7", "table1", "table2",
                                       "faults"}


def test_run_trace_scenario_unknown_name():
    with pytest.raises(KeyError, match="unknown trace scenario"):
        run_cell("trace", "nope")


def test_trace_main_writes_valid_jsonl(tmp_path, capsys):
    out = tmp_path / "fig7.jsonl"
    code = main(["trace", "fig7", "--quick", "--out", str(out), "--check"])
    assert code == 0
    assert validate_trace_file(str(out)) == []

    stdout = capsys.readouterr().out
    assert "repro trace fig7" in stdout
    assert "schema ok" in stdout
    # The tiny ring forces back-pressure; stalls must be on record.
    kinds = set()
    with open(out) as handle:
        for line in list(handle)[1:-1]:
            kinds.add(json.loads(line)["kind"])
    assert {"syscall", "ring.publish", "ring.replay", "ring.stall",
            "divergence.check"} <= kinds


def test_trace_main_faults_prints_forensics(tmp_path, capsys):
    out = tmp_path / "faults.jsonl"
    assert main(["trace", "faults", "--quick", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "forensics bundle 0:" in stdout
    assert "expected:" in stdout and "issued:" in stdout


def test_trace_main_check_rejects_corrupt_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "bad.jsonl"
    monkeypatch.chdir(tmp_path)
    code = main(["trace", "fig7", "--quick", "--out", str(out), "--check"])
    assert code == 0
    out.write_text('{"schema": "bogus/1"}\n')
    from repro.obs.trace import validate_trace_file as check
    assert check(str(out)) != []


def test_trace_main_respects_last_k(tmp_path, capsys):
    out = tmp_path / "faults.jsonl"
    assert main(["trace", "faults", "--quick", "--out", str(out)]) == 0
    kept = re.findall(r"last (\d+) records kept", capsys.readouterr().out)
    assert kept and all(0 < int(k) <= FORENSICS_LAST_K for k in kept)


def test_main_dispatches_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    code = main(["trace", "fig7", "--quick", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_run_trace_scenario_fig6_quick_has_dsu_lifecycle():
    tracer = Tracer(experiment="fig6")
    with observing(tracer=tracer):
        run_cell("trace", "fig6", quick=True)
    kinds = set(tracer.kind_tally())
    assert {"syscall", "ring.publish", "ring.replay", "divergence.check",
            "dsu.request", "dsu.quiesce", "dsu.xform", "dsu.applied",
            "control.promote"} <= kinds
    snapshot = tracer.metrics.snapshot()
    assert snapshot["dsu.quiescence_wait_ns"]["count"] >= 1
    assert snapshot["rules.dispatch_hits"]["value"] >= 0
