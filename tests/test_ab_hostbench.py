"""The section-8 verdict of tools/ab_hostbench.py.

Loaded by file path, like the docs lint.  Only the pure arithmetic is
tested here; the subprocess plumbing is exercised by CI's
``hostbench-smoke`` job (``--pairs 1 --smoke``).
"""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab_hostbench", os.path.join(REPO, "tools", "ab_hostbench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 101.5, 100.0, 98.5, 100.0]


def test_quartiles_of_one_value_collapse(ab):
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, median, q3 = ab.quartiles(PARENT)
    assert q1 <= median <= q3 and median == 100.0


def test_clear_gain_is_shown(ab):
    change = [value * 1.3 for value in PARENT]
    assert ab.verdict(PARENT, change, "higher") == (10, True)


def test_one_loss_in_ten_still_counts(ab):
    change = [value * 1.3 for value in PARENT]
    change[3] = PARENT[3] - 1
    assert ab.verdict(PARENT, change, "higher") == (9, True)


def test_two_losses_in_ten_do_not(ab):
    change = [value * 1.3 for value in PARENT]
    change[3] = PARENT[3] - 1
    change[4] = PARENT[4]  # a tie counts for neither side
    assert ab.verdict(PARENT, change, "higher") == (8, False)


def test_gap_inside_the_parents_spread_is_not_a_gain(ab):
    # Ahead in every pair, but by less than the parent's own quartile
    # distance: the medians are not resolved.
    change = [value + 0.01 for value in PARENT]
    wins, met = ab.verdict(PARENT, change, "higher")
    assert wins == 10 and not met


def test_lower_is_better_metrics_flip_the_sign(ab):
    change = [value * 0.5 for value in PARENT]
    assert ab.verdict(PARENT, change, "lower") == (10, True)
    assert ab.verdict(PARENT, change, "higher") == (0, False)
