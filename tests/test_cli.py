"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import _COMMANDS, main


def test_all_experiments_have_commands():
    assert set(_COMMANDS) == {"table1", "table2", "fig6", "fig7",
                              "faults", "ablations", "cluster",
                              "experiments"}


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
    (["perf", "--workers", "many"], "not 'many'"),
])
def test_bad_workers_is_a_usage_error(argv, complaint, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert "argument --workers" in error and complaint in error
    assert "Traceback" not in error


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
