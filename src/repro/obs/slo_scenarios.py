"""SLO scenario cells for ``python -m repro slo``.

Each scenario is a list of independent *cells* — a ring capacity in the
fig7 sweep, a vsftpd update pair in the table1 sweep, a whole fleet
round for canary-kvstore — and each cell runs the real semantic stack
under a spans-enabled :class:`~repro.obs.trace.Tracer`, then reduces to
the JSON/pickle-safe summary :func:`repro.obs.slo.collect_cell`
defines.  :func:`run_slo_scenario` shards cells across workers exactly
like the chaos campaign does (picklable descriptions, round-robin
shards, in-order merge) and assembles the ``repro-slo/1`` report — the
report is byte-identical at any worker count because per-phase latency
histograms merge losslessly (:meth:`~repro.obs.metrics.Histogram.merge`)
and nothing about the pool reaches the payload.

The traffic in each cell is deliberately *dense around the update*:
requests are admitted while quiescence and the fork pause are in
flight, so the 15 ms copy-on-write pause (the paper's Fig. 4 spike)
lands inside request windows and the attribution engine has real
``quiesce-pause`` blame to find; undersized rings in the fig7 sweep add
``ring-stall`` blame the same way.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Tuple

from repro.obs.slo import SloSpec, build_slo_report, collect_cell
from repro.obs.trace import Tracer
from repro.parallel import map_items
from repro.sites import observing

#: Virtual-time latency budgets per scenario.  The p99 budget doubles
#: as the per-request budget: a kvstore round trip costs tens of µs, a
#: quiesce+fork pause ~15 ms, so 2 ms cleanly separates "served
#: normally" from "paused by the upgrade" while ring stalls on
#: undersized rings still clear it.
SLO_SPECS: Dict[str, SloSpec] = {
    "fig7": SloSpec("fig7-kvstore", p50_ns=1_000_000, p99_ns=2_000_000,
                    p999_ns=20_000_000, availability=0.99),
    "table1": SloSpec("table1-vsftpd", p50_ns=1_000_000,
                      p99_ns=2_000_000, p999_ns=20_000_000,
                      availability=0.99),
    "canary-kvstore": SloSpec("canary-kvstore", p50_ns=1_000_000,
                              p99_ns=2_000_000, p999_ns=20_000_000,
                              availability=0.99),
}


# ---------------------------------------------------------------------------
# Cell drivers (run under an installed spans-enabled tracer)
# ---------------------------------------------------------------------------

def _drive_fig7(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """Full Mvedsua kvstore lifecycle through one ring capacity.

    Mirrors the fig7 trace companion but runs the *whole* update
    lifecycle with traffic dense enough that the quiesce/fork window
    and (on small rings) ring back-pressure both land inside request
    windows.
    """
    from repro.apps import deploy
    from repro.sim.engine import MILLISECOND, SECOND

    ops = 8 if quick else 32
    capacity = params["capacity"]
    stack = deploy("kvstore", "1.0", ring_capacity=capacity)
    mvedsua = stack.runtime
    client = stack.client(f"kv-cap{capacity}")

    def serve(start_ns: int, count: int, tag: int) -> int:
        now = start_ns
        for index in range(count):
            key = (seed * 7 + tag * 3 + index) % 16
            _, now = client.request(
                mvedsua, b"PUT k%d v%d\r\n" % (key, index), now + 1)
        return now

    # Steady state on the old version.
    now = serve(SECOND, ops, tag=0)
    # The update: requests admitted right behind it overlap quiescence
    # and the fork pause.
    up_at = now + MILLISECOND
    stack.update("2.0", up_at)
    now = serve(up_at + 1, ops, tag=1)
    # Validation window: MVE active, the small ring stalls the leader.
    now = serve(now + MILLISECOND, ops, tag=2)
    t5 = mvedsua.promote(now + MILLISECOND)
    now = serve(t5 + MILLISECOND, ops, tag=3)
    done = mvedsua.finalize(now + MILLISECOND)
    serve(done + MILLISECOND, ops, tag=4)


def _drive_table1(params: Dict[str, Any], seed: int, quick: bool) -> None:
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


def _drive_canary(params: Dict[str, Any], seed: int, quick: bool) -> None:
    """The full sharded-fleet canary scenario under span tracing."""
    from repro.cluster.fleet import run_fleet_scenario

    run_fleet_scenario("canary-kvstore", seed=seed,
                       commands=12 if quick else 36)


#: scenario -> (driver, [(cell name, params), ...]).
SLO_SCENARIOS: Dict[str, Tuple[Callable[..., None],
                               List[Tuple[str, Dict[str, Any]]]]] = {
    "fig7": (_drive_fig7, [
        ("ring-2^2", {"capacity": 4}),
        ("ring-2^3", {"capacity": 8}),
        ("ring-2^5", {"capacity": 32}),
    ]),
    "table1": (_drive_table1, [
        ("2.0.3-2.0.4", {"old": "2.0.3", "new": "2.0.4"}),
        ("2.0.4-2.0.5", {"old": "2.0.4", "new": "2.0.5"}),
        ("1.1.1-1.1.2", {"old": "1.1.1", "new": "1.1.2"}),
    ]),
    "canary-kvstore": (_drive_canary, [
        ("fleet-canary", {}),
    ]),
}


def run_slo_cell(scenario: str, cell_index: int, seed: int,
                 quick: bool) -> Dict[str, Any]:
    """Run one cell under a fresh spans-enabled tracer; returns the
    pickle-safe cell summary."""
    driver, cells = SLO_SCENARIOS[scenario]
    name, params = cells[cell_index]
    tracer = Tracer(experiment=f"slo-{scenario}-{name}", spans=True)
    with observing(tracer=tracer):
        driver(params, seed, quick)
    return collect_cell(tracer.spans, name, SLO_SPECS[scenario])


def run_slo_scenario(name: str, *, seed: int = 1, quick: bool = False,
                     workers: int = 1) -> Dict[str, Any]:
    """Run every cell of scenario ``name``; returns the ``repro-slo/1``
    report (byte-identical at any ``workers`` count)."""
    try:
        _, cells = SLO_SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown slo scenario {name!r} "
                       f"(have: {', '.join(sorted(SLO_SCENARIOS))})")
    summaries = map_items(
        functools.partial(run_slo_cell, name, seed=seed, quick=quick),
        len(cells), workers)
    return build_slo_report(name, seed, SLO_SPECS[name], summaries)
