"""The scenario table (:mod:`repro.scenarios`).

* Observers are read-only: cell 0 of every row, run once under its
  command's own observer and once under tracer, span collector, an
  empty-plan chaos injector and stream recorder at once, reduces to the
  same bytes; and the *outer* collector receives the row's spans, which
  a drive that installed its own collector would hide.
* The commands' positional choices are the table's rows.
* Importing the table, or a command module built on it, loads no app,
  server, chaos or cluster module: drives load them when they run.
  (``repro.chaos.cli`` is the chaos subsystem itself.)
"""

import inspect
import os
import subprocess
import sys

import pytest

import repro.scenarios as table
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import Fault, FaultPlan, on_call
from repro.chaos.scenarios import run_kv_update_scenario
from repro.cli import main
from repro.cluster.fleet import run_fleet_scenario
from repro.obs.slo import collect_cell
from repro.obs.slo_scenarios import SLO_SPECS
from repro.obs.spans import SpanCollector
from repro.obs.trace import Tracer
from repro.perf.harness import gauges
from repro.replay.recorder import StreamRecorder
from repro.scenarios import SCENARIOS, run_cell
from repro.sites import observing
from repro.workloads.openloop_scenarios import OPENLOOP_SPECS, drive_cell

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``perf`` rows run this many requests here (their full size is 1500+).
PERF_OPS = 40

#: The observer each command installs around ``run_cell`` itself.
OWN = {"trace": "tracer", "slo": "spans", "openloop": "spans",
       "chaos": "chaos", "perf": None}

ROWS = [(command, name) for command in SCENARIOS
        for name in SCENARIOS[command]]


def _observed(command, name, everything):
    """Cell 0 of one row under its command's observer (and, with
    ``everything``, all four); returns the installed observers and the
    command's reduction of the run, as text."""
    hooks = {"tracer": Tracer(experiment=name), "spans": SpanCollector(),
             "chaos": ChaosInjector(FaultPlan("none")),
             "recorder": StreamRecorder(name)}
    if not everything:
        hooks = {hook: hooks[hook] for hook in hooks if hook == OWN[command]}
    params = {"ops": PERF_OPS} if command == "perf" else {}
    with observing(**hooks):
        ran = run_cell(command, name, 0, 1, True, **params)
    cell, _ = SCENARIOS[command][name].cells[0]
    if command == "trace":
        tracer = hooks["tracer"]
        reduced = ([event.as_dict() for event in tracer.events],
                   tracer.metrics())
    elif command == "slo":
        reduced = collect_cell(hooks["spans"], cell, SLO_SPECS[name])
    elif command == "openloop":
        reduced = {**ran, "slo_cell": collect_cell(
            hooks["spans"], cell, OPENLOOP_SPECS[name][1])}
    elif command == "perf":
        reduced = gauges(ran, PERF_OPS)
    else:
        reduced = ran
    return hooks, repr(reduced)


@pytest.mark.parametrize("command, name", ROWS,
                         ids=[f"{c}-{n}" for c, n in ROWS])
def test_observers_are_read_only(command, name):
    _, alone = _observed(command, name, everything=False)
    hooks, watched = _observed(command, name, everything=True)
    assert watched == alone, "an observer changed what the command reads"
    assert hooks["spans"].spans, "the outer collector saw no span"
    assert hooks["tracer"].event_count
    assert not hooks["chaos"].injections


def test_observers_leave_divergence_forensics_alone():
    """The kvstore chaos cell whose third follower replay is corrupted
    diverges; its bundle keeps the lane's own last-K ring records, the
    same run alone and under all four observers."""
    plan = FaultPlan("corrupt-3", (Fault("mve.follower", "corrupt-record",
                                         on_call(3)),))
    with observing(chaos=ChaosInjector(plan)):
        alone = run_cell("chaos", "kvstore")
    with observing(tracer=Tracer(), spans=SpanCollector(),
                   chaos=ChaosInjector(plan),
                   recorder=StreamRecorder("kvstore")):
        watched = run_cell("chaos", "kvstore")
    assert alone.forensics is not None
    assert len(alone.forensics["ring_last_k"]) > 3   # more than one burst
    assert watched.forensics == alone.forensics


def test_no_drive_installs_an_observer():
    drives = [function for _, function
              in inspect.getmembers(table, inspect.isfunction)
              if function.__module__ == table.__name__]
    for function in drives + [run_kv_update_scenario, drive_cell,
                              run_fleet_scenario]:
        assert "observing(" not in inspect.getsource(function), function


@pytest.mark.parametrize("command", ["trace", "slo", "chaos", "openloop",
                                     "perf"])
def test_command_choices_are_the_rows(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = "".join(capsys.readouterr().out.split())
    names = ",".join(sorted(SCENARIOS[command]))
    if command == "perf":   # --scenario NAME, choices spelled in its help
        assert f"choices:{names}" in usage
    else:
        assert f"{{{names}}}" in usage


#: Every module the table's commands import it through.
GUARDED = ("repro.scenarios", "repro.obs.cli", "repro.obs.slo_cli",
           "repro.obs.slo_scenarios", "repro.perf.cli", "repro.perf.harness",
           "repro.workloads.openloop_cli",
           "repro.workloads.openloop_scenarios")

_LOADS = """
import importlib, sys
heavy = ("repro.apps", "repro.chaos", "repro.cluster", "repro.servers")
seen = set()
for module in sys.argv[1:]:
    importlib.import_module(module)
    for name in sorted(set(sys.modules) - seen):
        if name in heavy or name.startswith(tuple(h + "." for h in heavy)):
            print(module, "loads", name)
    seen = set(sys.modules)
"""


def test_the_table_and_its_commands_import_no_app_server_chaos_or_cluster():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run([sys.executable, "-c", _LOADS, *GUARDED],
                          env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == ""
