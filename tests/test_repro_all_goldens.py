"""Bit-identity pin for ``python -m repro all``.

The seven experiments take no seed and print only virtual-time results,
so their rendered stdout is a pure function of the simulator.  Host-side
optimisations (cost tables, hoisted loop invariants, faster heap copies)
must leave every byte alone; this makes that a tier-1 fact instead of a
hostbench-only one.  A deliberate model change regenerates
``fixtures/repro_all_goldens.json`` (and ``hostbench/goldens.json``, which
must carry the same digests) in its own PR.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from repro.bench.cli import EXPERIMENTS as MAINS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "fixtures", "repro_all_goldens.json")
HOSTBENCH_GOLDENS = os.path.join(HERE, os.pardir, "hostbench",
                                 "goldens.json")

#: ``python -m repro all`` order.
EXPERIMENTS = ("table1", "table2", "fig6", "fig7", "faults", "ablations",
               "cluster")


def _goldens(path=GOLDENS_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_stdout_matches_its_pinned_digest(name):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        MAINS[name]()
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == _goldens()[name], (
        f"`python -m repro {name}` no longer prints its pinned bytes")


def test_pinned_digests_cover_repro_all_and_agree_with_hostbench():
    assert sorted(_goldens()) == sorted(EXPERIMENTS)
    if os.path.exists(HOSTBENCH_GOLDENS):
        assert _goldens() == _goldens(HOSTBENCH_GOLDENS)
