"""The one observer slot and the one site table (:mod:`repro.sites`).

Three things are held here:

* the slot — ``observing(...)`` nests, restores and clears per hook,
  and the span collector needs no tracer beside it;
* the bytes — five one-fault cells run with tracer, span collector,
  chaos injector and stream recorder installed *together* produce the
  trace, span, stream, injection and runtime-event bytes pinned in
  ``tests/fixtures/observer_goldens.json`` (written at the commit before
  the slot existed; ``python tests/test_sites.py --write`` re-pins after
  a deliberate change to simulated output);
* the table — every fault site is reached by a fault-free probe, every
  declared kind is emitted by some run and nothing undeclared is, and
  the vocabularies derived from the table equal what they replaced.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict

import pytest

from repro.apps import deploy
from repro.bench.fluid import FluidConfig, FluidSim, UpdatePlan
from repro.chaos.campaign import CAMPAIGN_SCENARIOS, probe_site_calls
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import SITES, Fault, FaultPlan, at_time, on_call
from repro.chaos.scenarios import buggy_v2_factory, run_kv_update_scenario
from repro.cluster.fleet import run_fleet_scenario
from repro.obs.spans import SpanCollector
from repro.obs.trace import Tracer
from repro.replay.recorder import StreamRecorder
from repro.replay.stream import ENTRY_SHAPES
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.sites import OBS, TABLE, kinds, observing
from repro.syscalls.costs import PROFILES
from repro.workloads.closed_loop import ClosedLoopDriver
from repro.workloads.memtier import MemtierSpec
from repro.workloads.openloop import LoadSpec, OpenLoopGenerator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OBSERVER_GOLDENS = os.path.join(REPO, "tests", "fixtures",
                                "observer_goldens.json")

#: (site, kind, on-call index, param): one cell per layer that hosts a
#: hook — the follower's replay, the leader's iteration, the kernel, the
#: replicated ring's wire (``distributed`` scenario) and the DSU engine.
OBSERVER_CELLS = (
    ("mve.follower", "corrupt-record", 3, {}),
    ("mve.leader", "crash", 9, {}),
    ("kernel.read", "short-read", 4, {"bytes": 3}),
    ("fleet.ring", "partition-drop", 2, {}),
    ("dsu.quiesce", "delay", 1, {"delay_ns": 2_000_000}),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cell(site, kind, index, param, **observers):
    """One cell of :data:`OBSERVER_CELLS`: its fault armed, ``observers``
    installed beside the injector; returns the scenario result."""
    name = f"{site}/{kind}"
    plan = FaultPlan(name, (Fault(site, kind, on_call(index), param),))
    injector = ChaosInjector(plan)
    with observing(chaos=injector, **observers):
        result = run_kv_update_scenario(distributed=(site == "fleet.ring"))
    assert injector.injections, f"{name}: the fault never fired"
    return result


def observer_digests() -> Dict[str, Dict[str, str]]:
    """Run every cell of :data:`OBSERVER_CELLS` under all four observers
    at once; sha256 of each artifact's bytes, by cell."""
    digests: Dict[str, Dict[str, str]] = {}
    for site, kind, index, param in OBSERVER_CELLS:
        name = f"{site}/{kind}"
        tracer = Tracer(experiment=name)
        spans = SpanCollector()
        recorder = StreamRecorder(scenario=name)
        result = _run_cell(site, kind, index, param, tracer=tracer,
                           spans=spans, recorder=recorder)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "stream.jsonl")
            recorder.write(path)
            with open(path, encoding="utf-8") as handle:
                stream = handle.read()
        digests[name] = {
            "trace": _sha256("\n".join(tracer.to_jsonl_lines())),
            "spans": _sha256("\n".join(
                spans.to_jsonl_lines(experiment=name))),
            "stream": _sha256(stream),
            "injections": _sha256(json.dumps(result.injections)),
            "events": _sha256(json.dumps(result.events)),
        }
    return digests


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_all_four_observers_together_produce_the_pinned_bytes(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.test_sites import observer_digests; "
         "print(json.dumps(observer_digests()))"],
        env=env, cwd=REPO, capture_output=True, text=True, check=True)
    with open(OBSERVER_GOLDENS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert json.loads(out.stdout) == pinned


def test_spans_alone_produce_the_pinned_span_bytes():
    """The collector needs no tracer: installed without one (and without
    a recorder), every cell's ``repro-span/1`` lines hash to the digest
    pinned with all four observers, and no trace event is logged."""
    with open(OBSERVER_GOLDENS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    created, emitted = Tracer.created_total, Tracer.emitted_total
    for site, kind, index, param in OBSERVER_CELLS:
        name = f"{site}/{kind}"
        spans = SpanCollector()
        _run_cell(site, kind, index, param, tracer=None, spans=spans,
                  recorder=None)
        assert _sha256("\n".join(spans.to_jsonl_lines(experiment=name))) \
            == pinned[name]["spans"], name
    assert (Tracer.created_total, Tracer.emitted_total) == (created, emitted)


# ---------------------------------------------------------------------------
# The slot
# ---------------------------------------------------------------------------

_HOOKS = {"tracer": Tracer, "spans": SpanCollector, "chaos": ChaosInjector,
          "recorder": StreamRecorder}


@pytest.mark.parametrize("name", list(_HOOKS))
def test_nested_observing_restores_the_outer_hook(name):
    others = [other for other in _HOOKS if other != name]
    installed = {other: _HOOKS[other]() for other in others}
    outer, inner = _HOOKS[name](), _HOOKS[name]()
    with observing(**installed, **{name: outer}):
        with observing(**{name: inner}):
            assert getattr(OBS, name) is inner
        assert getattr(OBS, name) is outer
        # None inside a block turns off that hook, and only that one.
        with observing(**{name: None}):
            assert getattr(OBS, name) is None
            assert all(getattr(OBS, other) is installed[other]
                       for other in others)
        assert getattr(OBS, name) is outer
        # An exception inside still restores.
        with pytest.raises(RuntimeError):
            with observing(**{name: inner}):
                raise RuntimeError("boom")
        assert getattr(OBS, name) is outer
    assert (OBS.tracer, OBS.spans, OBS.chaos, OBS.recorder) == \
        (None, None, None, None)


# ---------------------------------------------------------------------------
# The table is true
# ---------------------------------------------------------------------------

def _closed_loop_run():
    """One ``ClosedLoopDriver`` run: the only thing that turns the
    discrete-event engine (and, unfiltered, a client's connect)."""
    stack = deploy("kvstore", "1.0", NativeRuntime)
    driver = ClosedLoopDriver(stack.kernel, stack.runtime,
                              stack.server.address, connections=1)
    driver.run(lambda index: iter([b"PUT k v\r\n", b"GET k\r\n"]))


def _rule_firing_run():
    """A typed PUT across the kvstore update: the one rewrite rule."""
    stack = deploy("kvstore", "1.0")
    stack.update("2.0", SECOND)
    stack.client().command(stack.runtime, b"PUT-number pi 3", now=2 * SECOND)


def _probed(run) -> Dict[str, int]:
    probe = ChaosInjector(FaultPlan("probe"))
    with observing(chaos=probe):
        run()
    return probe.site_calls


def test_every_fault_site_is_reached_by_a_fault_free_probe():
    """A site whose hook was renamed or never compiled in fails here,
    instead of filling a campaign grid with ``masked`` cells."""
    calls: collections.Counter = collections.Counter()
    for scenario in CAMPAIGN_SCENARIOS:
        calls.update(probe_site_calls(scenario))
    calls.update(_probed(run_fleet_scenario))
    calls.update(_probed(lambda: list(
        OpenLoopGenerator(LoadSpec(requests=8), seed=1).events())))
    calls.update(_probed(_closed_loop_run))
    assert [site.name for site in TABLE
            if site.faults and not calls[site.name]] == []
    # ...and nothing fires a site the table does not list.
    assert set(calls) <= set(SITES)


def _watched_runs():
    """Traced runs that between them walk every instrumented site."""
    def cell(site, kind, trigger=on_call(1), distributed=False, **param):
        plan = FaultPlan("cell", (Fault(site, kind, trigger, param),))
        return plan, lambda: run_kv_update_scenario(distributed=distributed)

    yield from (cell(site, kind, on_call(index),
                     distributed=(site == "fleet.ring"), **param)
                for site, kind, index, param in OBSERVER_CELLS)
    yield cell("mve.follower", "crash")
    yield cell("mve.ring", "stall")
    yield cell("dsu.quiesce", "timeout")
    yield cell("fleet.ring", "partition-drop", at_time(0, count=-1),
               distributed=True)    # sustained: the budget runs out
    yield (FaultPlan("fleet", (
        Fault("fleet.replica", "crash", on_call(2)),
        Fault("fleet.balancer", "partition", on_call(1)))),
        run_fleet_scenario)
    # One canary of the clean round diverges: the shards still in
    # flight roll back with it.
    yield (FaultPlan("canary", (
        Fault("fleet.canary", "divergence", on_call(4),
              {"factory": buggy_v2_factory}),)), run_fleet_scenario)
    yield FaultPlan("rules"), _rule_firing_run
    yield FaultPlan("engine"), _closed_loop_run
    yield FaultPlan("fluid"), lambda: FluidSim(FluidConfig(
        profile=PROFILES["redis"],
        spec=MemtierSpec(duration_ns=4 * SECOND))).run(
            plan=UpdatePlan(request_at=SECOND, promote_at=2 * SECOND,
                            finalize_at=3 * SECOND))


def test_what_the_runs_emit_is_what_the_table_declares():
    """Both directions, per column: every kind a run emits is declared,
    with the layer its row says, and every declared kind is emitted by
    some run — a row nothing feeds is a stale row."""
    seen = {"events": set(), "spans": set(), "entries": set()}
    for plan, run in _watched_runs():
        tracer, spans, recorder = Tracer(), SpanCollector(), StreamRecorder()
        with observing(tracer=tracer, spans=spans,
                       chaos=ChaosInjector(plan), recorder=recorder):
            run()
        seen["events"] |= {(e.kind, e.layer) for e in tracer.events}
        seen["spans"] |= {(s.kind, s.layer) for s in spans.spans}
        seen["entries"] |= {(entry["type"], "replay")
                            for entry in recorder.entries}
    for column, emitted in seen.items():
        declared = {(kind, site.layer)
                    for kind, site in kinds(column).items()}
        assert emitted - declared == set(), column
        assert declared - emitted == set(), column


def test_the_derived_vocabularies_equal_what_they_replaced():
    # chaos.plan.SITES, as it was written out before the table: same
    # keys, kinds and order (campaign grids enumerate it).
    assert list(SITES.items()) == [
        ("sim.event", ("delay", "drop")),
        ("kernel.read", ("short-read", "econnreset")),
        ("kernel.write", ("short-write", "epipe")),
        ("kernel.accept", ("fd-exhaustion",)),
        ("kernel.connect", ("fd-exhaustion",)),
        ("mve.leader", ("crash",)),
        ("mve.follower", ("crash", "corrupt-record")),
        ("mve.ring", ("stall",)),
        ("dsu.update", ("buggy-version",)),
        ("dsu.quiesce", ("timeout", "delay", "race")),
        ("dsu.transform", ("exception", "corrupt-heap", "replace")),
        ("fleet.replica", ("crash",)),
        ("fleet.canary", ("divergence",)),
        ("fleet.balancer", ("partition",)),
        ("fleet.ring", ("partition-drop", "partition-delay",
                        "partition-reorder")),
        ("openloop.arrival", ("burst", "drop")),
    ]
    # The stream's entry shapes are the entries column (the footer is
    # the writer's, not a site's).
    assert set(kinds("entries")) == set(ENTRY_SHAPES) - {"footer"}
    # A name or kind is declared once.
    for column in ("events", "spans", "entries"):
        declared = [kind for site in TABLE for kind in getattr(site, column)]
        assert len(declared) == len(set(declared)), column
    assert len({site.name for site in TABLE}) == len(TABLE)


def test_every_row_points_at_code_that_exists():
    for site in TABLE:
        path, _, qualname = site.where.partition(":")
        target = importlib.import_module(
            "repro." + path[:-len(".py")].replace("/", "."))
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), site.where


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_sites.py --write")
    with open(OBSERVER_GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(observer_digests(), handle, indent=2, sort_keys=True)
        handle.write("\n")
