"""Self-test of the benchmark: ``python -m pytest hostbench -q``.

Not part of the tier-1 ``testpaths``.  Everything runs under
``--smoke`` sizing (ops/50, one round), so it checks names, exactness,
failure accounting and the designed layer separation — never speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = list(workloads.WORKLOADS)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def smoke(workload: str, seed: int, trace: int) -> dict:
    """One ``--smoke`` measurement through the command line; returns
    the contract JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs of every workload at seed 1."""
    return {name: (smoke(name, 1, 1), smoke(name, 1, 1))
            for name in WORKLOADS}


# -- BENCHMARK.json and the code agree ------------------------------------

def test_benchmark_json_lists_what_the_code_emits():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["command"] == ["python3", "hostbench/run.py"]
    assert SPEC["paths"] == ["hostbench"]
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_specs()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_emits_exactly_the_listed_metrics(traced):
    listed = [m["name"] for m in SPEC["per_layer"]]
    for name in WORKLOADS:
        for result in traced[name]:
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"]
            assert list(result["metrics"]) == listed
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1


def test_end_to_end_metrics_and_no_failures_at_seed_2():
    listed = [m["name"] for m in SPEC["end_to_end"]]
    for name in WORKLOADS:
        result = smoke(name, 2, 0)
        assert list(result["metrics"]) == listed
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0


def test_exact_counters_repeat_for_a_seed(traced):
    exact = set(probes.COUNTERS) | set(probes.OUTCOME_COUNTERS) \
        | (set(probes.DERIVED) - {"trace.root_ms",
                                  "trace.unattributed_share"}) \
        | {f"{layer}.calls" for layer in probes.LAYERS} \
        | {"sim.vlat_max_ns"}
    for name in WORKLOADS:
        first, second = traced[name]
        for metric in exact:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)


# -- the designed separation: who calls which layer ------------------------

def _calls(traced, workload: str, layer: str) -> int:
    return traced[workload][0]["metrics"][f"{layer}.calls"]["value"]


def test_zero_call_predictions_hold(traced):
    mve_side = ("mve.rules", "mve.ring", "mve.replay", "mve.distring",
                "mve.divergence", "net.ring_wire")
    for layer in mve_side:
        assert _calls(traced, "steady-single-leader", layer) == 0, layer
    for layer in ("net.kernel", "mve.gateway", "servers.handler",
                  "mve.varan", "workloads.client"):
        assert _calls(traced, "steady-single-leader", layer) > 0, layer
    for layer in ("mve.rules", "mve.ring", "mve.replay", "net.filesystem"):
        assert _calls(traced, "update-rule-heavy", layer) > 0, layer
    for name in WORKLOADS:
        wire = _calls(traced, name, "net.ring_wire")
        assert (wire > 0) == (name in ("distring-link-sweep",
                                       "chaos-grid")), name
        for layer in ("obs.trace", "obs.spans", "obs.slo",
                      "workloads.openloop"):
            assert (_calls(traced, name, layer) > 0) \
                == (name == "openloop-upgrade-waves"), (name, layer)
        assert (_calls(traced, name, "bench.fluid") > 0) \
            == (name == "paper-all"), name
        assert (_calls(traced, name, "chaos.invariants") > 0) \
            == (name == "chaos-grid"), name
    for name in ("steady-single-leader", "update-rule-heavy",
                 "openloop-upgrade-waves"):
        assert _calls(traced, name, "mve.distring") == 0, name
    fired = traced["update-rule-heavy"][0]["metrics"]["mve.rules.fired"]
    assert fired["value"] > 0


def test_self_times_add_up_to_the_root_span(traced):
    for name in WORKLOADS:
        metrics = traced[name][0]["metrics"]
        root = metrics["trace.root_ms"]["value"]
        layers = sum(metrics[f"{layer}.self_ms"]["value"]
                     for layer in probes.LAYERS)
        unattributed = metrics["trace.unattributed_share"]["value"] * root
        assert abs(layers + unattributed - root) <= 0.01 * root, name
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert metrics["trace.unresolved_probes"]["value"] == 0


# -- failures are counted and reach the exit code --------------------------

def test_wrong_reference_model_fails_ops_and_the_command(monkeypatch, capsys):
    monkeypatch.setattr(
        workloads, "redis_expected",
        lambda commands, store: [b"+WRONG\r\n"] * len(commands))
    record = child.run_round("steady-single-leader", 1, 200, False,
                             time.perf_counter())
    assert record["failed"] == record["attempted"] == 200
    assert record["problems"]

    def spawn(name, seed, ops, trace):
        return dict(record, wall_s=0.1)
    code = run.main(["--workload", "steady-single-leader", "--smoke",
                     "--trace", "0"], spawn=spawn)
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] == 200


def test_crashed_round_fails_every_op(capsys):
    def spawn(name, seed, ops, trace):
        return {"workload": name, "trace": trace, "crashed": "boom",
                "attempted": ops, "failed": ops, "problems": ["boom"],
                "wall_s": 0.1}
    code = run.main(["--workload", "paper-all", "--smoke", "--trace", "0"],
                    spawn=spawn)
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and not line["correct"]
    assert line["failed"] == line["attempted"] >= 1


def test_virtual_time_must_repeat_across_rounds():
    base = {"attempted": 10, "failed": 0, "problems": [], "setup_s": 0.2,
            "timed_s": 1.0, "ref_s": 1.1, "peak_rss_mb": 30.0,
            "cpu_over_wall": 0.99, "gc_gen2_collections": 0, "counters": {}}
    raw = {"workload": "steady-single-leader", "seed": 1, "ops": 10,
           "disturbed_runs": 0, "traced": [],
           "untraced": [dict(base, vlat_max_ns=100),
                        dict(base, vlat_max_ns=101)]}
    result = run.reduce_rounds(raw)
    assert result["failed"] == result["attempted"] == 20
    assert "vlat_max_ns differs" in result["problems"][0]


def test_disturbed_rounds_are_discarded_and_counted():
    shares = iter([0.5, 0.99, 0.6, 0.7, 0.99, 0.99])

    def spawn(name, seed, ops, trace):
        return {"attempted": ops, "failed": 0, "problems": [],
                "setup_s": 0.2, "timed_s": 1.0, "ref_s": 1.1,
                "peak_rss_mb": 30.0,
                "cpu_over_wall": next(shares), "gc_gen2_collections": 0,
                "vlat_max_ns": 7, "counters": {}, "wall_s": 0.0}
    raw = run.measure(workloads.WORKLOADS["paper-all"], 1, 0.0, False,
                      False, spawn)
    # Two disturbed rounds were re-run; the third low one is kept.
    assert raw["disturbed_runs"] == run.EXTRA_ROUNDS
    assert [r["cpu_over_wall"] for r in raw["untraced"]] == [0.99, 0.7, 0.99]


# -- probes tolerate refactors and leave nothing behind --------------------

def test_unresolved_probe_is_listed_and_wrappers_are_removed(monkeypatch):
    from repro.workloads.client import VirtualClient
    original = VirtualClient.request
    monkeypatch.setattr(probes, "PROBES", probes.PROBES + [
        probes.Probe("net.kernel", "repro.net.kernel:VirtualKernel.gone"),
        probes.Probe("net.kernel", "repro.no_such_module:thing")])
    record = child.run_round("update-rule-heavy", 1, 400, True,
                             time.perf_counter())
    assert record["failed"] == 0
    assert record["layers"]["trace.unresolved_probes"] == 2
    assert record["layers"]["net.kernel.calls"] > 0
    assert VirtualClient.request is original


def test_wrappers_are_removed_when_the_workload_raises(monkeypatch):
    from repro.workloads.client import VirtualClient
    original = VirtualClient.request

    def build(seed, ops):
        def thunk():
            raise RuntimeError("workload blew up")
        return thunk
    monkeypatch.setitem(
        workloads.WORKLOADS, "boom",
        workloads.Workload("boom", "request", 1, "raises", build))
    with pytest.raises(RuntimeError):
        child.run_round("boom", 1, 1, True, time.perf_counter())
    assert VirtualClient.request is original


def test_untraced_rounds_never_import_the_probes():
    code = ("import sys, time; sys.path[:0] = [%r, %r]; import child; "
            "child.run_round('steady-single-leader', 1, 50, False, "
            "time.perf_counter()); assert 'probes' not in sys.modules"
            % (HERE, os.path.join(ROOT, "src")))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# -- compare.py ------------------------------------------------------------

def _set(ops_samples, vlat=100, fail_share=0.0):
    return {"workloads": {"w": {
        "end_to_end": {
            "ops_per_host_s": run.spread(ops_samples),
            "setup_s": run.spread([0.20, 0.21, 0.20, 0.21]),
            "peak_rss_mb": run.spread([30.0, 30.1, 30.0, 30.1])},
        "fail_share": fail_share, "vlat_max_ns": vlat}}}


def _status(rows, metric):
    return next(row["status"] for row in rows if row["metric"] == metric)


def test_compare_applies_the_bounds():
    bounds = compare.load_bounds()
    bound = bounds["ops_per_host_s"][1]
    steady = [1000.0, 1001.0, 1002.0, 1003.0]
    rows = compare.compare(_set(steady), _set(steady), bounds)
    assert {row["status"] for row in rows} == {"ok"}

    slower = [value * (1 - 2 * bound) for value in steady]
    rows = compare.compare(_set(steady), _set(slower), bounds)
    assert _status(rows, "ops_per_host_s") == "regression"

    noisy = [1000.0 * (1 + 3 * bound * k) for k in (-1, 0, 0, 1)]
    rows = compare.compare(_set(noisy), _set(noisy), bounds)
    assert _status(rows, "ops_per_host_s") == "unresolved"
    far_better = [value * 10 for value in noisy]
    rows = compare.compare(_set(noisy), _set(far_better), bounds)
    assert _status(rows, "ops_per_host_s") == "improved"

    rows = compare.compare(_set(steady), _set(steady, vlat=99), bounds)
    assert _status(rows, "vlat_max_ns") == "changed"
    rows = compare.compare(_set(steady), _set(steady, vlat=101,
                                              fail_share=0.1), bounds)
    assert _status(rows, "vlat_max_ns") == "regression"
    assert _status(rows, "fail_share") == "regression"


def test_compare_exit_codes(tmp_path, capsys):
    steady = [1000.0, 1001.0, 1002.0, 1003.0]
    paths = []
    for index, samples in enumerate((steady, [v / 2 for v in steady])):
        path = tmp_path / f"set{index}.json"
        path.write_text(json.dumps(_set(samples)))
        paths.append(str(path))
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert "regression" in capsys.readouterr().out
