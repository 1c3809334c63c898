"""The one observer slot, the run's position and the one site table
(:mod:`repro.sites`).

Four things are held here:

* the slot — ``observing(...)`` nests, restores and clears per hook,
  and opens a run: the position (clock, stage, phase) starts fresh and
  the outer one is back on exit;
* the bytes — five one-fault cells run with the run log's writer in
  the tracer, spans and recorder slots and the chaos injector installed
  *together* produce the log, injection and runtime-event bytes pinned
  in ``tests/fixtures/observer_goldens.json``
  (``python tests/test_sites.py --write`` re-pins after a deliberate
  change to simulated output);
* independence — each observer installed alone writes exactly its share
  of those bytes, so no observer moves what another one reads;
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
from typing import Dict, List

import pytest

from repro.apps import deploy
from repro.bench.fluid import FluidConfig, FluidSim, UpdatePlan
from repro.chaos.campaign import probe_site_calls
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import SITES, Fault, FaultPlan, at_time, on_call
from repro.chaos.scenarios import buggy_v2_factory, run_kv_update_scenario
from repro.cluster.fleet import run_fleet_scenario
from repro.obs.trace import Tracer
from repro.replay.recorder import StreamRecorder
from repro.replay.stream import STREAM_SHAPES
from repro.scenarios import SCENARIOS
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND, Engine
from repro.sites import OBS, PHASES, TABLE, kinds, observing
from repro.syscalls.costs import PROFILES
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
    installed beside the injector; returns the cell's bytes by artifact:
    the run log's lines (``log``, when a writer is installed) and the
    injections and runtime events (always)."""
    name = f"{site}/{kind}"
    plan = FaultPlan(name, (Fault(site, kind, on_call(index), param),))
    injector = ChaosInjector(plan)
    with observing(chaos=injector, **observers):
        result = run_kv_update_scenario(distributed=(site == "fleet.ring"))
    assert injector.injections, f"{name}: the fault never fired"
    out = {"injections": json.dumps(result.injections),
           "events": json.dumps(result.events)}
    log = next(iter(observers.values()), None)
    if log is not None:
        out["log"] = "\n".join(log.to_jsonl_lines())
    return out


def _all_four(site, kind, index, param):
    """A cell under all four observers at once: one writer in the
    tracer, spans and recorder slots, and the injector."""
    log = Tracer(experiment=f"{site}/{kind}")
    return _run_cell(site, kind, index, param, tracer=log, spans=log,
                     recorder=log)


def observer_digests() -> Dict[str, Dict[str, str]]:
    """Run every cell of :data:`OBSERVER_CELLS` under all four observers
    at once; sha256 of each artifact's bytes, by cell."""
    return {f"{site}/{kind}": {artifact: _sha256(data) for artifact, data
                               in _all_four(site, kind, index,
                                            param).items()}
            for site, kind, index, param in OBSERVER_CELLS}


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


def _records(log_text: str) -> List[dict]:
    """A run log's record lines, decoded (header and snapshot dropped)."""
    return [json.loads(line) for line in log_text.split("\n")[1:-1]]


def _unparented(record: dict) -> dict:
    """An event record as a writer in the tracer slot alone logs it:
    with no span open around it (no writer in the spans slot)."""
    return dict(record, parent=None) if "span" not in record else record


def test_each_observer_alone_writes_its_share_of_the_bytes():
    """Installed on its own beside the cell's injector, each observer
    writes exactly its part of the all-four run: the tracer slot the
    event records, the recorder slot the stream records, each with the
    metrics they fold to, the spans slot the span records; the
    injections and runtime events never move.  Nothing one observer
    records depends on which others are installed.  One thing in the
    all-four log is *about* another observer and goes with it: a
    record's ``parent`` names a span (null without the spans slot)."""
    for cell in OBSERVER_CELLS:
        together = _all_four(*cell)
        records = _records(together["log"])
        stream = [r for r in records if r["kind"].startswith("stream.")]
        metrics = json.loads(together["log"].split("\n")[-1])
        recorded = {"stream.recorded":
                    metrics["metrics"].pop("stream.recorded")}
        alone = {
            "tracer": _run_cell(*cell, tracer=Tracer()),
            "spans": _run_cell(*cell, spans=Tracer()),
            "chaos": _run_cell(*cell),
            "recorder": _run_cell(*cell, recorder=StreamRecorder()),
        }
        for name, out in alone.items():
            assert out["injections"] == together["injections"], name
            assert out["events"] == together["events"], name
        assert _records(alone["tracer"]["log"]) == \
            [_unparented(r) for r in records
             if "span" not in r and r not in stream]
        assert json.loads(alone["tracer"]["log"].split("\n")[-1]) == metrics
        assert _records(alone["spans"]["log"]) == \
            [r for r in records if "span" in r]
        assert _records(alone["recorder"]["log"]) == \
            [_unparented(r) for r in stream]
        assert json.loads(alone["recorder"]["log"].split("\n")[-1]) == \
            {"kind": "metrics.snapshot", "metrics": recorded}


# ---------------------------------------------------------------------------
# The slot
# ---------------------------------------------------------------------------

_HOOKS = {"tracer": Tracer, "spans": Tracer, "chaos": ChaosInjector,
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


def test_a_block_is_a_run_with_its_own_position():
    """Every block starts its run at time 0, no stage, the first phase,
    and gives the outer run its position back on exit — so an injector
    installed inside a traced run (``trace faults``' E1–E3) sees a clock
    that starts at 0."""
    with observing():
        OBS.vnow, OBS.stage, OBS.phase = 7, "outdated-leader", "mve-active"
        with observing(chaos=ChaosInjector()):
            assert (OBS.vnow, OBS.stage, OBS.phase) == (0, "", PHASES[0])
            OBS.vnow, OBS.stage, OBS.phase = 99, "single-leader", "promoted"
        assert (OBS.vnow, OBS.stage, OBS.phase) == \
            (7, "outdated-leader", "mve-active")


def test_deployments_and_transitions_write_the_position():
    """``Mvedsua`` writes the lifecycle position once per transition:
    building one sets the stage and leaves the phase where the run's
    last update put it; an update moves both."""
    with observing():
        OBS.phase = "rolled-back"
        stack = deploy("kvstore", "1.0")
        assert (OBS.stage, OBS.phase) == ("single-leader", "rolled-back")
        stack.update("2.0", SECOND)
        assert (OBS.stage, OBS.phase) == ("outdated-leader", "mve-active")
        assert OBS.vnow == SECOND    # the update request moved the clock


# ---------------------------------------------------------------------------
# The table is true
# ---------------------------------------------------------------------------

def _engine_run():
    """Two requests on the discrete-event engine, each scheduled when
    the one before completes.  No command turns the engine, so this is
    what reaches the ``sim.event`` site (and, unfiltered, a client's
    connect)."""
    stack = deploy("kvstore", "1.0", NativeRuntime)
    client, engine = stack.client(), Engine()
    requests = iter([b"PUT k v\r\n", b"GET k\r\n"])

    def send():
        payload = next(requests, None)
        if payload is not None:
            _, done = client.request(stack.runtime, payload, engine.now)
            engine.schedule_at(max(done, engine.now + 1), send)

    engine.schedule_at(0, send)
    engine.run()


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
    for scenario in SCENARIOS["chaos"]:
        calls.update(probe_site_calls(scenario))
    calls.update(_probed(run_fleet_scenario))
    calls.update(_probed(lambda: list(
        OpenLoopGenerator(LoadSpec(requests=8), seed=1).events())))
    calls.update(_probed(_engine_run))
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
    yield FaultPlan("engine"), _engine_run
    yield FaultPlan("fluid"), lambda: FluidSim(FluidConfig(
        profile=PROFILES["redis"],
        spec=MemtierSpec(duration_ns=4 * SECOND))).run(
            plan=UpdatePlan(request_at=SECOND, promote_at=2 * SECOND,
                            finalize_at=3 * SECOND))


def test_what_the_runs_emit_is_what_the_table_declares():
    """Both directions, per column: every kind a run emits is declared,
    with the layer its row says, and every declared kind is emitted by
    some run — a row nothing feeds is a stale row."""
    seen = {"events": set(), "spans": set()}
    for plan, run in _watched_runs():
        log = Tracer()
        with observing(tracer=log, spans=log, chaos=ChaosInjector(plan),
                       recorder=log):
            run()
        seen["events"] |= {(e.kind, e.layer) for e in log.events}
        seen["spans"] |= {(s.kind, s.layer) for s in log.spans}
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
    # The stream's record shapes are the kinds its row declares.
    assert set(STREAM_SHAPES) == {kind for kind, site
                                  in kinds("events").items()
                                  if site.name == "stream.record"}
    # A name or kind is declared once.
    for column in ("events", "spans"):
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
