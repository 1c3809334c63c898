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


# -- the no-regression mode (``--workload`` omitted) ---------------------------


def _sides(parent_ops, change_ops, setup=(0.10, 0.10), rss=(30.0, 30.0)):
    count = len(parent_ops)
    return {"parent": {"ops_per_host_s": parent_ops,
                       "setup_s": [setup[0]] * count,
                       "peak_rss_mb": [rss[0]] * count},
            "change": {"ops_per_host_s": change_ops,
                       "setup_s": [setup[1]] * count,
                       "peak_rss_mb": [rss[1]] * count}}


def _statuses(ab, results):
    return {(metric, workload): status for metric, workload, _, _, status
            in ab.judge_all(results, ab.load_compare())}


def test_every_metric_of_every_workload_gets_a_row(ab):
    results = {"w1": _sides(PARENT, PARENT), "w2": _sides(PARENT, PARENT)}
    statuses = _statuses(ab, results)
    assert set(statuses) == {(metric, workload)
                             for metric, _ in ab.METRICS
                             for workload in ("w1", "w2")}
    assert set(statuses.values()) == {"ok"}


def test_a_drop_beyond_the_benchmark_bound_is_a_regression(ab):
    # BENCHMARK.json: ops_per_host_s may worsen by 15 %, peak_rss_mb by
    # 15 %, setup_s by 25 % (or 0.05 s, whichever is larger).
    inside = _sides(PARENT, [value * 0.90 for value in PARENT],
                    setup=(0.10, 0.14), rss=(30.0, 34.0))
    beyond = _sides(PARENT, [value * 0.80 for value in PARENT],
                    setup=(0.40, 0.52), rss=(30.0, 35.0))
    statuses = _statuses(ab, {"inside": inside, "beyond": beyond})
    for metric, _ in ab.METRICS:
        assert statuses[(metric, "inside")] == "ok"
        assert statuses[(metric, "beyond")] == "regression"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged(ab):
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    statuses = _statuses(ab, {"w": _sides(noisy, noisy)})
    assert statuses[("ops_per_host_s", "w")] == "unresolved"
    # ... unless every change run beats every parent run.
    ahead = [value + 100.0 for value in noisy]
    statuses = _statuses(ab, {"w": _sides(noisy, ahead)})
    assert statuses[("ops_per_host_s", "w")] == "improved"


def test_summary_is_the_shape_compare_judges(ab):
    stats = ab.summary(PARENT)
    assert stats["samples"] is PARENT
    assert (stats["q1"], stats["median"], stats["q3"]) == ab.quartiles(PARENT)
