"""Tests for the ``python -m repro`` command-line spine.

One contract over :data:`repro.cli.COMMANDS` instead of a copy per
subsystem: every command's flag set is pinned, every report-writing
command is reproducible across ``PYTHONHASHSEED`` and worker count, and
its bytes match the sha256 pins in ``fixtures/cli_goldens.json`` (see
``tools/cli_goldens.py``, which also checks the full-size cases).
"""

import importlib.util
import os
import re

import pytest

from repro.bench.cli import EXPERIMENTS
from repro.cli import COMMANDS, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_goldens_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_goldens", os.path.join(REPO, "tools", "cli_goldens.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


goldens = _load_goldens_tool()

#: command -> (options, positionals), read off ``--help`` at the commit
#: before the spine existed.  A flag added, renamed or dropped fails
#: here; so does a command added to the table without a row.
_TRACE_ONLY = (["--trace"], [])
SURFACE = {
    **{name: _TRACE_ONLY for name in list(EXPERIMENTS) + ["all"]},
    "claims": ([], []),
    "lint": (["--app", "--catalog", "--format", "--json", "--prove",
              "--spans"], []),
    "prove": (["--catalog", "--json", "--no-replay", "--out"], ["app"]),
    "perf": (["--diff", "--json", "--ops", "--out", "--quick",
              "--scenario", "--slo"], []),
    "trace": (["--check", "--out", "--quick", "--record"],
              ["{faults,fig6,fig7,table1,table2}"]),
    "chaos": (["--max-cells", "--oncall-cap", "--plan", "--record",
               "--report", "--seed", "--slo", "--workers"],
              ["{kvstore,kvstore-distributed}"]),
    "fleet": (["--distributed", "--openloop", "--replicas", "--report",
               "--seed", "--shards", "--slo"], ["{canary-kvstore}"]),
    "replay": (["--against", "--json", "--out", "--validate"], ["STREAM"]),
    "slo": (["--check", "--out", "--quick", "--seed", "--spans",
             "--workers"], ["{canary-kvstore,fig7,table1}"]),
    "openloop": (["--check", "--out", "--quick", "--seed", "--slo",
                  "--workers"], ["{kvstore,redis}"]),
}


def test_all_experiments_have_commands():
    assert set(EXPERIMENTS) == {"table1", "table2", "fig6", "fig7",
                                "faults", "ablations", "cluster",
                                "experiments"}
    assert {name for name, module in COMMANDS.items()
            if module == "repro.bench.cli"} == set(EXPERIMENTS) | {"all"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_exposes_exactly_the_pinned_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0].replace("\n", " ")
    assert usage.startswith(f"usage: python -m repro {command} ")
    options = sorted(set(re.findall(r"(?<![\w-])--[a-z][\w-]*", usage)))
    positionals = re.sub(r"\[[^\]]*\]", "", usage).split()[5:]
    assert (options, positionals) == SURFACE[command]


def test_every_pinned_surface_is_a_command():
    assert set(SURFACE) == set(COMMANDS)


@pytest.mark.parametrize(
    "case", [case for case in goldens.CASES if case.gate],
    ids=lambda case: case.name)
def test_reports_are_reproducible_and_match_their_pins(case):
    """Same bytes under PYTHONHASHSEED=0 with one worker and under
    PYTHONHASHSEED=1 with ``--workers 2``, and the bytes pinned before
    the spine replaced the per-subsystem parsers."""
    assert goldens.check_case(case, goldens.load_goldens()[case.name]) == []


def test_table2_runs(capsys):
    assert main(["table2"]) == 0
    output = capsys.readouterr().out
    assert "Table 2" in output
    assert "mvedsua-2" in output


def test_table1_runs(capsys):
    assert main(["table1"]) == 0
    output = capsys.readouterr().out
    assert "Average rules/update: 0.85" in output


def test_lint_dispatches_with_its_own_flags(capsys):
    assert main(["lint", "--app", "snort"]) == 0
    output = capsys.readouterr().out
    assert "mvelint: analyzed snort" in output


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_missing_argument_rejected():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv, complaint", [
    (["openloop", "kvstore", "--workers", "0"], "must be >= 1, got 0"),
    (["slo", "fig7", "--workers", "zero"], "not 'zero'"),
    (["chaos", "kvstore", "--workers", "-2"], "must be >= 1, got -2"),
    (["openloop", "redis", "--workers", "many"], "not 'many'"),
    # The forensics window is a constant, not a flag.
    (["trace", "fig6", "--quick", "--last-k", "2"],
     "unrecognized arguments: --last-k 2"),
    (["fleet", "canary-kvstore", "--shards", "0"],
     "argument --shards: must be >= 1, got 0"),
    (["fleet", "canary-kvstore", "--replicas", "0"],
     "argument --replicas: must be >= 1, got 0"),
    (["fleet", "canary-kvstore", "--distributed", "--replicas", "1"],
     "unusable fleet topology: cross-node MVE pairs need a second"),
    (["chaos", "kvstore", "--max-cells", "-3"],
     "argument --max-cells: must be >= 1, got -3"),
    (["chaos", "kvstore", "--max-cells", "0"],
     "argument --max-cells: must be >= 1, got 0"),
    # Flags that only shaped wall time are gone, not silently accepted.
    (["perf", "--repeat", "3"], "unrecognized arguments: --repeat 3"),
    (["perf", "--tolerance", "0.2"],
     "unrecognized arguments: --tolerance 0.2"),
    (["perf", "--ops", "0"], "argument --ops: must be >= 1, got 0"),
])
def test_bad_workers_is_a_usage_error(argv, complaint, capsys,
                                      monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    error = captured.err
    if "--workers" in argv:
        assert "argument --workers" in error
    assert f"python -m repro {argv[0]}: error: " in error
    assert complaint in error
    assert "Traceback" not in error
    # Rejected before any scenario ran or file was written.
    assert captured.out == "" and os.listdir(tmp_path) == []


_PLAN_IMPORT = "from repro.chaos.plan import Fault, FaultPlan, on_call\n"


@pytest.mark.parametrize("name, text, complaint", [
    ("plan.txt", "not python", "cannot load fault plan"),
    ("plan.py", "def plan(:\n", "SyntaxError"),
    ("plan.py", "x = 1\n", "does not define a plan() function"),
    ("plan.py", "def plan():\n    return 7\n",
     "plan() returned int, expected FaultPlan"),
    ("plan.py", _PLAN_IMPORT + "def plan():\n    return FaultPlan('p', ("
     "Fault('kernel.reed', 'short-read', on_call(1)),))\n",
     "unknown injection site 'kernel.reed' (known sites: dsu.quiesce, "),
    ("plan.py", _PLAN_IMPORT + "def plan():\n    return FaultPlan('p', ("
     "Fault('kernel.read', 'epipe', on_call(1)),))\n",
     "fault kind 'epipe' is not legal at site 'kernel.read'"),
])
def test_unusable_fault_plan_is_a_usage_error(name, text, complaint, capsys,
                                              monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "kvstore", "--plan", name])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    [error] = [line for line in captured.err.splitlines()
               if "error:" in line]
    assert f"error: cannot use fault plan {name!r}: " in error
    assert complaint in error
    assert "Traceback" not in captured.err
    # Refused before the fault-free baseline ran or a report was written.
    assert captured.out == "" and os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("argv", [
    ["chaos", "kvstore", "--plan", "MISSING.py"],
    ["trace", "fig6", "--quick", "--out", "NO_DIR/x.jsonl"],
])
def test_unusable_path_is_one_error_line_and_exit_2(argv, capsys,
                                                    monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    error_lines = capsys.readouterr().err.strip().splitlines()
    assert len(error_lines) == 1 and "error:" in error_lines[0]
