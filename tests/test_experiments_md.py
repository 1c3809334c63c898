"""The EXPERIMENTS.md generator must emit every section, with live data."""

import hashlib
import io
import json

import pytest

from repro.bench import claims, experiments_md


@pytest.fixture(scope="module")
def report():
    measured = claims.measure(prefixes=("table1.", "fig7.", "update-time."))
    out = io.StringIO()
    out.write(experiments_md.HEADER)
    for section in (experiments_md.TABLE1, experiments_md.FIG7,
                    experiments_md.UPDATE_TIME):
        experiments_md.emit_claims(out, *section, measured)
    return out.getvalue()


def test_header_explains_regeneration(report):
    assert "python -m repro experiments" in report
    assert "python -m repro claims" in report


def test_table1_section_complete(report):
    assert "## Table 1" in report
    assert report.count("| `table1.vsftpd.") == 13
    assert "`table1.vsftpd.1.1.0->1.1.1`" in report
    assert "`table1.vsftpd.2.0.5->2.0.6`" in report
    # measured average next to the paper's
    assert "| 0.85 | = paper | 0.85 | calibrated | yes |" in report


def test_fig7_section_has_paper_comparison(report):
    assert "## Figure 7" in report
    assert "5,040 ms" in report       # paper's Kitsune number
    assert "`fig7.mvedsua-2^10>kitsune`" in report   # the orderings...
    assert "**15/15** hold" in report                # ...all pass


def test_update_time_section(report):
    assert "§6.1" in report
    assert "on the follower" in report
    assert "| 6.20 s | paper ± 10% of it | 6.21 s |" in report


def test_chaos_section_reports_zero_violations():
    out = io.StringIO()
    experiments_md.emit_chaos(out)
    section = out.getvalue()
    assert "## Chaos campaign" in section
    assert "| invariant-violation | 0 |" in section
    assert "**zero** invariant violations" in section


def test_slo_section_has_per_phase_percentiles():
    out = io.StringIO()
    experiments_md.emit_slo(out)
    section = out.getvalue()
    assert "## SLO accounting" in section
    assert "| quiesce-pause |" in section
    assert "**quiesce-pause**" in section  # the worst-request blame


def test_committed_file_is_fresh():
    """EXPERIMENTS.md in the repository is, to the byte, what the pinned
    ``python -m repro experiments`` printed: the file and the pin in
    ``tests/fixtures/cli_goldens.json`` are regenerated together or
    this fails, guarding against hand-edited numbers."""
    with open("EXPERIMENTS.md", "rb") as handle:
        content = handle.read()
    with open("tests/fixtures/cli_goldens.json") as handle:
        pin = json.load(handle)["experiments"]["$ repro experiments"]
    assert hashlib.sha256(content + b"[exit 0]\n").hexdigest() == pin
