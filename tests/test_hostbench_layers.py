"""Which benchmark workload reaches which layer, measured by the
benchmark's own probes.

This is ``hostbench/test_hostbench.py::test_zero_call_predictions_hold``
with one row changed: the open-loop and SLO cells install a bare
``SpanCollector`` and no tracer, so ``obs.trace`` (``Tracer.emit``) is
reached by no workload, ``openloop-upgrade-waves`` included.  The
benchmark's self-test still predicts trace calls there; CI deselects
that one test and this file holds the whole table in its place until
the self-test is corrected.

One traced smoke-sized round of every workload runs in one fresh
process (``hostbench/child.py``'s ``run_round``), so the probes'
wrappers and the benchmark's modules never enter this process.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ROUNDS = """
import json, sys, time
sys.path[:0] = [%r, %r]
import child, workloads
layers = {}
for name, workload in workloads.WORKLOADS.items():
    record = child.run_round(name, 1, workloads.smoke_ops(workload), True,
                             time.perf_counter())
    assert record["failed"] == 0, (name, record["problems"])
    layers[name] = record["layers"]
print(json.dumps(layers))
"""

#: Each layer named here is reached by exactly these workloads.
ONLY = {
    "obs.trace": set(),
    "obs.spans": {"openloop-upgrade-waves"},
    "obs.slo": {"openloop-upgrade-waves"},
    "workloads.openloop": {"openloop-upgrade-waves"},
    "net.ring_wire": {"distring-link-sweep", "chaos-grid"},
    "bench.fluid": {"paper-all"},
    "chaos.invariants": {"chaos-grid"},
}


@pytest.fixture(scope="module")
def layers():
    code = _ROUNDS % (os.path.join(REPO, "hostbench"),
                      os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def _calls(layers, workload: str, layer: str) -> int:
    return layers[workload][f"{layer}.calls"]


def test_each_layer_is_reached_by_exactly_its_workloads(layers):
    for layer, reached in ONLY.items():
        assert {name for name in layers
                if _calls(layers, name, layer) > 0} == reached, layer


def test_the_single_leader_never_reaches_the_mve_side(layers):
    for layer in ("mve.rules", "mve.ring", "mve.replay", "mve.distring",
                  "mve.divergence", "net.ring_wire"):
        assert _calls(layers, "steady-single-leader", layer) == 0, layer
    for layer in ("net.kernel", "mve.gateway", "servers.handler",
                  "mve.varan", "workloads.client"):
        assert _calls(layers, "steady-single-leader", layer) > 0, layer
    for layer in ("mve.rules", "mve.ring", "mve.replay", "net.filesystem"):
        assert _calls(layers, "update-rule-heavy", layer) > 0, layer
    for name in ("steady-single-leader", "update-rule-heavy",
                 "openloop-upgrade-waves"):
        assert _calls(layers, name, "mve.distring") == 0, name
    assert layers["update-rule-heavy"]["mve.rules.fired"] > 0
