"""The ``python -m repro trace`` CLI and its companion scenarios."""

import json
import re

import pytest

from repro.cli import main
from repro.obs import Tracer, validate_file
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
    assert validate_file(str(out)) == []

    stdout = capsys.readouterr().out
    assert "repro trace fig7" in stdout
    assert "schema ok" in stdout
    # The tiny ring forces back-pressure; stalls must be on record.
    kinds = set()
    with open(out) as handle:
        for line in list(handle)[1:-1]:
            kinds.add(json.loads(line)["kind"])
    assert {"iteration", "ring.publish", "ring.replay", "ring.stall",
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
    from repro.obs.trace import validate_file as check
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
    assert {"iteration", "ring.publish", "ring.replay", "divergence.check",
            "dsu.request", "dsu.quiesce", "dsu.xform", "dsu.applied",
            "control.promote"} <= kinds
    snapshot = tracer.metrics()
    assert snapshot["dsu.quiescence_wait_ns"]["count"] >= 1
    assert snapshot["rules.dispatch_hits"]["value"] >= 0


# ---------------------------------------------------------------------------
# One run clock: no observer moves it
# ---------------------------------------------------------------------------

def _trace_lines(tmp_path, name, *extra):
    out = tmp_path / f"{name}.jsonl"
    assert main(["trace", "fig6", "--quick", "--out", str(out),
                 *extra]) == 0
    return out.read_text().splitlines()


def test_recording_changes_only_the_recorders_own_records(tmp_path, capsys):
    """The recorder slot's ``stream.*`` records are its share of the
    log; every other line of ``trace --record`` is the plain trace's,
    ``at`` included: the recorder's tap moves no clock."""
    plain = _trace_lines(tmp_path, "plain")
    recorded = _trace_lines(tmp_path, "recorded", "--record")
    taps = [line for line in recorded[1:-1]
            if json.loads(line)["kind"].startswith("stream.")]
    assert {json.loads(line)["kind"] for line in taps} == \
        {"stream.claim", "stream.record", "stream.promote"}
    assert [line for line in recorded[1:-1] if line not in taps] == \
        plain[1:-1]
    metrics = json.loads(recorded[-1])
    del metrics["metrics"]["stream.recorded"]
    assert metrics == json.loads(plain[-1])


def test_an_experiments_stdout_does_not_see_its_trace(tmp_path, capsys):
    """``repro faults`` prints the same bytes with and without
    ``--trace``: its E1–E3 chaos blocks run inside the traced run, and
    each injector's clock still starts at 0."""
    assert main(["faults"]) == 0
    untraced = capsys.readouterr().out
    assert main(["faults", "--trace", str(tmp_path / "t.jsonl")]) == 0
    assert capsys.readouterr().out == untraced


def test_no_leader_syscall_is_stamped_before_its_pump(monkeypatch):
    """The run clock is where the work is: every leader ``iteration``
    record logged inside ``pump(now)`` carries an ``at`` no earlier than
    ``now``, and every one is logged inside a pump."""
    from repro.mve.varan import VaranRuntime
    log = Tracer()
    pumps = []
    original = VaranRuntime.pump

    def pump(runtime, now):
        start = log.event_count
        try:
            return original(runtime, now)
        finally:
            pumps.append((start, log.event_count, now, runtime.domain))

    monkeypatch.setattr(VaranRuntime, "pump", pump)
    with observing(tracer=log, spans=log):
        run_cell("trace", "fig6", quick=True)
    checked = 0
    for start, end, now, _ in pumps:
        for event in log.events[start:end]:
            if event.kind == "iteration" and \
                    event.fields["role"] == "direct":
                checked += 1
                assert event.at >= now, (event, now)
    leader = [event for event in log.events if event.kind == "iteration"
              and event.fields["role"] == "direct"]
    assert checked == len(leader) > 30
