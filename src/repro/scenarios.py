"""The scenario table: every run ``trace``, ``slo``, ``perf``, ``chaos``
and ``openloop`` measure, declared once.

``SCENARIOS[command][name]`` is a :class:`Scenario` row: a *drive* and
its named *cells*.  ``drive(params, seed, quick)`` runs one cell under
whatever :data:`repro.sites.OBS` holds and returns what the command's
reducer reads; it never installs an observer itself.  A command picks
its rows, wraps :func:`run_cell` in its own observer and reduces:

============  ==================================  ==========================
command       installs                            reduces
============  ==================================  ==========================
``trace``     ``observing(tracer=…, spans=…)``    the run log: events, spans
              (one writer in both slots)          and metrics
``slo``       ``observing(spans=…)``              ``collect_cell`` over the
                                                  spans
``openloop``  ``observing(spans=…)``              the returned summary, plus
                                                  ``collect_cell``
``perf``      nothing                             gauges off the returned
                                                  runtime and client
``chaos``     ``observing(chaos=…)``              the returned
                                                  ``ChaosRunResult``
============  ==================================  ==========================

so any row runs under any observers at once, and what a command reduces
does not depend on what else is watching (``tests/test_scenarios.py``).

Rows with one name under two commands drive different traffic, and
their bytes are pinned as they are: ``trace fig7`` is a Varan pair
behind an 8-entry ring, ``slo fig7`` a whole Mvedsua lifecycle per ring
capacity, ``perf fig7-ring-2^N`` a Varan pair under 512 keys.

Drives import the catalog, the servers, chaos and the cluster when they
run, never with this module: every command module imports it.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

#: ``drive(params, seed, quick)`` -> what the command's reducer reads.
Drive = Callable[[Dict[str, Any], int, bool], Any]


class Scenario(NamedTuple):
    """One row: a drive and its ``(cell name, params)`` cells."""

    drive: Drive
    cells: Tuple[Tuple[str, Dict[str, Any]], ...]


def _only(drive: Drive, **params: Any) -> Scenario:
    """A row of one cell."""
    return Scenario(drive, (("run", params),))


def _back_to_back(client: Any, runtime: Any, commands: Iterable[bytes],
                  now: int = 0) -> int:
    """Send each command 1 ns after the previous answer; returns the
    last answer's time."""
    for command in commands:
        _, now = client.request(runtime, command, now + 1)
    return now


def _memtier(ops: int, seed: int) -> Iterable[bytes]:
    from repro.workloads.memtier import MemtierSpec
    return MemtierSpec().commands(ops, protocol="redis", seed=seed)


# ---------------------------------------------------------------------------
# trace: the experiments' semantic companions
#
# The headline experiments reproduce the paper's numbers with the fluid
# simulator, which is nearly silent at trace level; each gets the same
# lifecycle driven through the full semantic stack, so its trace carries
# per-syscall, per-ring-batch and per-divergence-check events.
# ---------------------------------------------------------------------------

def _trace_fig6(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """Redis 2.0.0 -> 2.0.1 through the full Mvedsua lifecycle."""
    from repro.apps import deploy
    from repro.sim.engine import SECOND

    ops = 8 if quick else 40
    stack = deploy("redis", "2.0.0", ring_capacity=1 << 10)
    mvedsua = stack.runtime
    client = stack.client()

    def serve(start_ns: int, stream: int) -> None:
        now = start_ns
        for command in _memtier(ops, stream):
            _, now = client.request(mvedsua, command, now)

    serve(SECOND, 1)
    stack.update("2.0.1", 100 * SECOND)
    serve(101 * SECOND, 2)
    mvedsua.promote(200 * SECOND)
    serve(201 * SECOND, 3)
    mvedsua.finalize(300 * SECOND)
    serve(301 * SECOND, 4)


def _trace_table1(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """One Vsftpd Table 1 update pair (2.0.4 -> 2.0.5, RETR reorder)."""
    from repro.apps import deploy
    from repro.sim.engine import SECOND
    from repro.workloads.ftpclient import FtpClient

    retrs = 1 if quick else 4
    stack = deploy("vsftpd", "2.0.4")
    stack.kernel.fs.write_file("/f.txt", b"trace payload")
    mvedsua = stack.runtime
    client = FtpClient(stack.kernel, stack.server.address)
    client.login(mvedsua)
    stack.update("2.0.5", SECOND)
    now = 2 * SECOND
    for _ in range(retrs):
        client.retr(mvedsua, "f.txt", now=now)
        now += SECOND
    mvedsua.promote(now)
    client.retr(mvedsua, "f.txt", now=now + SECOND)
    mvedsua.finalize(now + 2 * SECOND)


def _trace_table2(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """Redis steady state: single leader, then a plain Varan follower."""
    from repro.apps import deploy
    from repro.mve import VaranRuntime

    ops = 8 if quick else 40
    stack = deploy("redis", "2.0.0", VaranRuntime,
                   ring_capacity=1 << 10, with_kitsune=False)
    runtime = stack.runtime
    client = stack.client()
    now = _back_to_back(client, runtime, _memtier(ops, 5))
    runtime.fork_follower(now)
    _back_to_back(client, runtime, _memtier(ops, 6), now)
    runtime.drain_follower()


def _trace_fig7(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """KV store through a tiny (8-entry) ring: heavy back-pressure."""
    from repro.apps import deploy
    from repro.mve import VaranRuntime

    ops = 12 if quick else 80
    stack = deploy("kvstore", "1.0", VaranRuntime, ring_capacity=8)
    runtime = stack.runtime
    client = stack.client()     # before the fork, as the pinned trace has it
    runtime.fork_follower(0)
    _back_to_back(client, runtime, (b"PUT k%d v%d" % (index % 16, index)
                                    for index in range(ops)))
    runtime.drain_follower()


def _trace_faults(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """Forced failures: an xform bug (divergence + forensics bundle) and
    a new-code crash (follower terminated, service survives)."""
    from repro.apps import deploy
    from repro.dsu.transform import TransformRegistry
    from repro.servers.kvstore import xform_drop_table
    from repro.sim.engine import SECOND

    # -- xform bug: the dropped table makes the follower's GET diverge.
    buggy = TransformRegistry()
    buggy.register("kvstore", "1.0", "2.0", xform_drop_table)
    stack = deploy("kvstore", "1.0", transforms=buggy)
    client = stack.client()
    client.command(stack.runtime, b"PUT balance 1000")
    stack.update("2.0", SECOND)
    client.command(stack.runtime, b"GET balance", now=2 * SECOND)
    client.command(stack.runtime, b"GET balance", now=3 * SECOND)

    # -- new-code crash: the E1 Redis HMGET bug kills the follower.
    stack = deploy("redis", "2.0.0")
    client = stack.client()
    client.command(stack.runtime, b"SET wrongtype value")
    stack.update("2.0.1-7fb16bac", SECOND)
    client.command(stack.runtime, b"HMGET wrongtype f", now=2 * SECOND)
    client.command(stack.runtime, b"GET wrongtype", now=3 * SECOND)


# ---------------------------------------------------------------------------
# slo: traffic dense around the update
#
# Requests are admitted while quiescence and the fork pause are in
# flight, so the 15 ms copy-on-write pause (the paper's Fig. 4 spike)
# lands inside request windows and the attribution engine has real
# ``quiesce-pause`` blame to find; undersized rings in the fig7 sweep
# add ``ring-stall`` blame the same way.
# ---------------------------------------------------------------------------

def _slo_fig7(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """Full Mvedsua kvstore lifecycle through one ring capacity."""
    from repro.apps import deploy
    from repro.sim.engine import MILLISECOND, SECOND

    ops = 8 if quick else 32
    capacity = params["capacity"]
    stack = deploy("kvstore", "1.0", ring_capacity=capacity)
    mvedsua = stack.runtime
    client = stack.client(f"kv-cap{capacity}")

    def serve(start_ns: int, tag: int) -> int:
        return _back_to_back(client, mvedsua, (
            b"PUT k%d v%d\r\n" % ((seed * 7 + tag * 3 + index) % 16, index)
            for index in range(ops)), start_ns)

    # Steady state on the old version.
    now = serve(SECOND, tag=0)
    # The update: requests admitted right behind it overlap quiescence
    # and the fork pause.
    up_at = now + MILLISECOND
    stack.update("2.0", up_at)
    now = serve(up_at + 1, tag=1)
    # Validation window: MVE active, the small ring stalls the leader.
    now = serve(now + MILLISECOND, tag=2)
    t5 = mvedsua.promote(now + MILLISECOND)
    now = serve(t5 + MILLISECOND, tag=3)
    done = mvedsua.finalize(now + MILLISECOND)
    serve(done + MILLISECOND, tag=4)


def _slo_table1(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """One vsftpd update pair with traffic spanning the update window."""
    from repro.apps import deploy
    from repro.sim.engine import MILLISECOND, SECOND
    from repro.workloads.ftpclient import FtpClient

    old, new = params["old"], params["new"]
    retrs = 2 if quick else 6
    stack = deploy("vsftpd", old)
    stack.kernel.fs.write_file("/f.txt", b"slo-payload")
    mvedsua = stack.runtime
    client = FtpClient(stack.kernel, stack.server.address, f"ftp-{old}")
    client.login(mvedsua, now=SECOND)
    now = SECOND + MILLISECOND
    for _ in range(retrs):
        client.retr(mvedsua, "f.txt", now=now)
        now += MILLISECOND
    up_at = now
    stack.update(new, up_at)
    now = up_at + 1
    for _ in range(retrs):
        client.command(mvedsua, b"SYST", now=now)
        now += MILLISECOND
    t5 = mvedsua.promote(now)
    now = t5 + MILLISECOND
    client.retr(mvedsua, "f.txt", now=now)
    mvedsua.finalize(now + MILLISECOND)


def _slo_canary(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """The full sharded-fleet canary scenario."""
    from repro.cluster.fleet import run_fleet_scenario

    run_fleet_scenario("canary-kvstore", seed=seed,
                       commands=12 if quick else 36)


# ---------------------------------------------------------------------------
# perf, chaos, openloop
# ---------------------------------------------------------------------------

def _perf(params: Dict[str, Any], seed: int, quick: bool) -> Tuple[Any, Any]:
    """Serve ``params["ops"]`` requests back to back through one hot-path
    configuration and let the follower catch up; returns the Varan
    runtime and the client the gauges are read off."""
    from repro.apps import deploy
    from repro.mve import VaranRuntime

    ops = params["ops"]
    if "capacity" in params:
        stack = deploy("kvstore", "1.0", VaranRuntime,
                       ring_capacity=params["capacity"])
        commands: Iterable[bytes] = [b"PUT k%d v%d\r\n" % (i % 512, i)
                                     for i in range(ops)]
    else:
        commands = _memtier(ops, params["memtier"])
        if params.get("rules"):
            from repro.perf.harness import rule_heavy_catalog
            stack = deploy("redis", "2.0.0", ring_capacity=1 << 14)
            catalog = rule_heavy_catalog(stack.app.rules_for("2.0.0",
                                                             "2.0.1"))
            attempt = stack.update("2.0.1", 10**9, rules=catalog)
            if not attempt.ok:  # pragma: no cover - setup invariant
                raise RuntimeError(f"update failed: {attempt.reason}")
        else:
            stack = deploy("redis", "2.0.0", VaranRuntime,
                           ring_capacity=1 << 14)
    if params.get("fork"):
        stack.runtime.fork_follower(0)
    client = stack.client()
    _back_to_back(client, stack.runtime, commands)
    # Only the rules row deploys an Mvedsua; the rest are Varan itself.
    varan = stack.runtime.runtime if params.get("rules") else stack.runtime
    varan.drain_follower()
    return varan, client


def _chaos(params: Dict[str, Any], seed: int, quick: bool) -> Any:
    from repro.chaos.scenarios import run_kv_update_scenario
    return run_kv_update_scenario(**params)


def _openloop(params: Dict[str, Any], seed: int, quick: bool) -> Any:
    from repro.workloads.openloop_scenarios import drive_cell
    return drive_cell(params, seed, quick)


#: How the openloop cells serve one shared arrival stream, in report
#: order; a cell is named ``mode-loop``.
_OPENLOOP_MODES = (("native", "open"), ("mve", "open"),
                   ("restart", "open"), ("restart", "closed"),
                   ("mvedsua", "open"), ("mvedsua", "closed"))

#: command -> row name -> row.  A row's positional name is the command
#: line's choice; perf runs its rows in this order.
SCENARIOS: Dict[str, Dict[str, Scenario]] = {
    "trace": {
        "fig6": _only(_trace_fig6),
        "fig7": _only(_trace_fig7),
        "table1": _only(_trace_table1),
        "table2": _only(_trace_table2),
        "faults": _only(_trace_faults),
    },
    "slo": {
        "fig7": Scenario(_slo_fig7, tuple(
            (f"ring-2^{power}", {"capacity": 1 << power})
            for power in (2, 3, 5))),
        "table1": Scenario(_slo_table1, tuple(
            (f"{old}-{new}", {"old": old, "new": new})
            for old, new in (("2.0.3", "2.0.4"), ("2.0.4", "2.0.5"),
                             ("1.1.1", "1.1.2")))),
        "canary-kvstore": Scenario(_slo_canary, (("fleet-canary", {}),)),
    },
    "perf": {
        # Redis steady state, no follower: interception only.
        "single-leader": _only(_perf, ops=2000, memtier=11),
        # Varan leader + identical follower, no rules.
        "mve-follower": _only(_perf, ops=1500, memtier=12, fork=True),
        # Redis 2.0.0 -> 2.0.1 outdated-leader stage, 122-rule catalogue
        # (the pair's 2 rules and 120 that never fire).
        "rule-heavy-mve-redis": _only(_perf, ops=1500, memtier=13,
                                      rules=True),
        # Leader + follower through a 32/256/2048-entry ring.
        **{f"fig7-ring-2^{power}": _only(_perf, ops=1500, fork=True,
                                         capacity=1 << power)
           for power in (5, 8, 11)},
    },
    "chaos": {
        "kvstore": _only(_chaos),
        # The ring crosses a link: the fleet.ring partition site.
        "kvstore-distributed": _only(_chaos, distributed=True),
    },
    "openloop": {
        app: Scenario(_openloop, tuple(
            (f"{mode}-{loop}", {"app": app, "mode": mode, "loop": loop})
            for mode, loop in _OPENLOOP_MODES))
        for app in ("kvstore", "redis")
    },
}


def _row(command: str, name: str) -> Scenario:
    """``SCENARIOS[command][name]``; a ``KeyError`` naming the choices."""
    try:
        return SCENARIOS[command][name]
    except KeyError:
        raise KeyError(f"unknown {command} scenario {name!r} (have: "
                       f"{', '.join(sorted(SCENARIOS[command]))})") from None


def run_cell(command: str, name: str, index: int = 0, seed: int = 1,
             quick: bool = False, **params: Any) -> Any:
    """Run cell ``index`` of one row under whatever observers are
    installed; ``params`` override the cell's own."""
    scenario = _row(command, name)
    _, cell = scenario.cells[index]
    return scenario.drive({**cell, **params}, seed, quick)


def run_cells(command: str, name: str, each: Callable[..., Any], *,
              seed: int, quick: bool, workers: int) -> List[Any]:
    """``[each(name, index, seed, quick) for every cell of the row]``,
    sharded over ``workers`` processes and merged in cell order, so the
    list is the same at any count.  ``each`` is the command's top-level
    observer + :func:`run_cell` + reduce, so a worker is sent names and
    indices, never a closure."""
    cells = _row(command, name).cells
    # Imported here: importing the table must not load multiprocessing.
    from repro.parallel import map_items
    return map_items(functools.partial(each, name, seed=seed, quick=quick),
                     len(cells), workers)
