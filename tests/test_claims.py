"""The claims ledger (``repro.bench.claims``): every statement of the
paper's evaluation holds, belongs somewhere, and the gate can fail.
(That DESIGN.md §3's id prefixes and ``docs/calibration.md``'s cited
ids match the ledger is check 5 of ``tools/check_docs.py``, run and
planted against in ``tests/test_docs_lint.py``.)"""

import dataclasses
import re

import pytest

from repro.bench import claims, experiments_md, fluid
from repro.bench.fig7 import Fig7Row
from repro.bench.fluid import FluidResult
from repro.cli import main
from repro.syscalls.costs import PROFILES


@pytest.fixture(scope="module")
def results():
    return claims.Results()


@pytest.fixture(scope="module")
def measured(results):
    return claims.measure(results)


def test_every_claim_holds(measured):
    assert [row.claim.id for row in measured if not row.holds] == []
    assert len(measured) == len(claims.LEDGER)


def test_ids_are_unique_and_kinds_are_known():
    ids = [claim.id for claim in claims.LEDGER]
    assert len(ids) == len(set(ids))
    assert {claim.kind for claim in claims.LEDGER} == {
        claims.CALIBRATED, claims.EMERGENT}


def test_table2_tells_fits_from_predictions():
    """16 of Table 2's 24 cells are what the cost factors were solved
    from; the 8 Mvedsua cells — the paper's headline bands — are not."""
    cells = [claim for claim in claims.LEDGER
             if re.fullmatch(r"table2\.[\w-]+\.(native|kitsune|varan-\d"
                             r"|mvedsua-\d)", claim.id)]
    assert len(cells) == 24
    emergent = [claim.id for claim in cells
                if claim.kind == claims.EMERGENT]
    assert len(emergent) == 8
    assert all(".mvedsua-" in claim_id for claim_id in emergent)


def test_every_claim_is_rendered_in_exactly_one_section():
    sections = [part for part in experiments_md.PARTS if not callable(part)]
    for claim in claims.LEDGER:
        assert sum(claim.id.startswith(prefixes)
                   for _, prefixes, _ in sections) == 1, claim.id


def test_results_in_hand_run_no_driver(monkeypatch):
    def fake_row(label, latency_ms):
        return Fig7Row(label, FluidResult(
            bins=[1.0], total_ops=1.0, duration_ns=10**9,
            max_latency_ns=int(latency_ms * 1e6), longest_stall_ns=0))
    monkeypatch.setattr(claims.Results, "DRIVERS", {})
    rows = [fake_row(claim.id[len("fig7."):], claim.paper)
            for claim in claims.LEDGER if claim.unit == "ms"
            and claim.id.startswith("fig7.")]
    judged = claims.measure(claims.Results(fig7=rows), ("fig7.",))
    assert len(judged) == 15 and all(row.holds for row in judged)
    with pytest.raises(AttributeError):
        claims.measure(claims.Results(fig7=rows), ("table2.",))


#: A cost-table edit that keeps every command running, and exactly the
#: claims it must break.  (field of PROFILES["redis"], or the module
#: constant when the field is None.)
PLANTED = [
    ("kitsune_compute_factor", 1.08,
     ["table2.redis.kitsune", "table2.redis.mvedsua-1",
      "table2.redis.single-leader-band"]),
    ("varan_leader_syscall_factor", 3.0,
     ["table2.redis.varan-2", "table2.redis.mvedsua-2"]),
    ("xform_entry_ns", 2500,
     ["fig7.kitsune", "fig7.mvedsua-2^20>immediate-promotion",
      "fig7.2^20-regime", "fig7.masking", "update-time.follower"]),
    ("ring_entries_per_op", 6,
     ["fig7.mvedsua-2^20>immediate-promotion", "fig7.2^20-regime"]),
    (None, 1.6, ["update-time.follower"]),
]


def plant(monkeypatch, field, value):
    if field is None:
        monkeypatch.setattr(fluid, "FOLLOWER_XFORM_FACTOR", value)
    else:
        monkeypatch.setitem(PROFILES, "redis", dataclasses.replace(
            PROFILES["redis"], **{field: value}))


@pytest.mark.parametrize("field, value, expected", PLANTED,
                         ids=[edit[0] or "FOLLOWER_XFORM_FACTOR"
                              for edit in PLANTED])
def test_a_planted_cost_edit_fails_by_name(monkeypatch, results, field,
                                           value, expected):
    plant(monkeypatch, field, value)
    # The one slow driver (a 200k-entry kvstore, four times) reads
    # neither the Redis profile nor the fluid model: reuse its result.
    judged = claims.measure(claims.Results(strategies=results.strategies))
    assert [row.claim.id for row in judged if not row.holds] == expected


def test_the_command_exits_1_and_names_the_rows(monkeypatch, capsys):
    """(That it exits 0 and ends ``all hold`` untouched is the ``claims``
    case of ``tools/cli_goldens.py``.)"""
    field, value, expected = PLANTED[1]
    plant(monkeypatch, field, value)
    assert main(["claims"]) == 1
    table = capsys.readouterr().out.splitlines()
    calibrated = sum(claim.kind == claims.CALIBRATED
                     for claim in claims.LEDGER)
    assert table[-1] == (
        f"{len(claims.LEDGER)} claims ({calibrated} calibrated, "
        f"{len(claims.LEDGER) - calibrated} emergent): "
        f"2 FAIL: {', '.join(expected)}")
    assert [line.split()[0] for line in table
            if line.endswith("FAILS")] == expected
