"""Open-loop scenario cells for ``python -m repro openloop``.

Each scenario (kvstore, redis) drives one *identical* open-loop arrival
stream — same seed, same rng stream name, so the same logical clients
ask for the same keys at the same instants — through five serving
configurations:

====================  ====================================================
cell                  what serves the traffic
====================  ====================================================
``native-open``       plain server, no update: the steady-state floor
``mve-open``          Varan leader + identical follower, no update
``restart-open``      Kitsune-only DSU mid-run: quiesce + transform
                      *block service*; open-loop arrivals queue behind
                      the pause and eat the full delay
``restart-closed``    the same update, but requests issue closed-loop
                      (next send waits for the previous completion) —
                      the coordinated-omission baseline that politely
                      waits the pause out
``mvedsua-open``      the full Mvedsua wave (request_update → promote →
                      finalize): the leader pays only the fork pause
                      while the transform runs on the follower
``mvedsua-closed``    the same wave, closed-loop
====================  ====================================================

The headline contrast the ISSUE names falls out of the table: under the
identical upgrade wave, ``restart-closed`` p99 *understates*
``restart-open`` p99 (the pause hits every queued arrival, but the
closed loop only ever has ``connections`` requests in flight), while
``mvedsua-open`` stays within the SLO budget because the 15 ms fork
pause is the only in-band stall.  The scenario preloads the store so
the state transform is expensive (entries × 5 µs) the way a warmed
production heap is — that is what makes restart-style DSU pause for
tens of milliseconds while Mvedsua does not.

What the six cells share is built once per ``(scenario, seed, quick)``
by :func:`shared_stream` and kept in a small memo: the arrival events,
the generator's and pool's counters, each event's wire payload and the
preload entries, in one frozen :class:`SharedStream`.  A cell under a
chaos injector builds its own, since the ``openloop.arrival`` site can
reshape the stream, and leaves the memo alone.

Each scenario is an ``openloop`` row of
:data:`repro.scenarios.SCENARIOS` with these six cells, and
:func:`drive_cell` is its drive.  :func:`run_openloop_cell` runs a
cell under a span collector and no tracer (the report reads spans
only) and reduces it to a picklable summary (exact latency→count
dicts), so ``run_openloop_scenario`` shards cells with
:func:`repro.scenarios.run_cells` and the ``repro-openloop/1`` report
is byte-identical at any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.mve import VaranRuntime
from repro.obs.metrics import Histogram
from repro.obs.slo import (CHECKS_SHAPE, SPEC_SHAPE, SloSpec,
                           build_slo_report, collect_cell)
from repro.obs.trace import Tracer
from repro.report import ANY, NAT, ListOf, Obj, Via, const, problems
from repro.scenarios import SCENARIOS, run_cell, run_cells
from repro.sites import OBS, observing
from repro.workloads.keyspace import request_templates
from repro.workloads.openloop import (LoadSpec, OpenLoopGenerator,
                                      OpenRequest)

if TYPE_CHECKING:  # loaded with the first stack, see _stack
    from repro.apps import Stack

#: Report schema identifier (bump on shape changes).
OPENLOOP_SCHEMA = "repro-openloop/1"

#: Heap entries preloaded before the wave: the transform pause is
#: entries × xform_entry_ns (5 µs), so 12k entries make a Kitsune
#: restart block for ~62 ms (quiesce included) against Mvedsua's fixed
#: 15 ms fork pause.  --quick keeps the same shape at a quarter scale.
PRELOAD_ENTRIES = 12_000
PRELOAD_ENTRIES_QUICK = 6_000

#: Latency budgets: p50 covers steady-state service (tens of µs), the
#: 20 ms p99 budget sits between the Mvedsua fork pause (~15 ms) and
#: the restart pause (~62 ms) so exactly one of them breaches it.
OPENLOOP_SPECS: Dict[str, Tuple[LoadSpec, SloSpec]] = {
    "kvstore": (
        LoadSpec(name="kvstore-openloop", population=1_000_000,
                 connections=16,
                 arrival={"process": "poisson", "rate_per_sec": 4000.0},
                 keys={"distribution": "zipf", "keyspace": 50_000,
                       "exponent": 1.1},
                 read_fraction=0.9, value_size=16, session_requests=40,
                 reconnect_ns=500_000, requests=2400),
        SloSpec("kvstore-openloop", p50_ns=1_000_000,
                p99_ns=20_000_000, p999_ns=80_000_000,
                availability=0.99)),
    "redis": (
        LoadSpec(name="redis-openloop", population=1_000_000,
                 connections=16,
                 arrival={"process": "mmpp", "rate_per_sec": 2500.0,
                          "burst_rate_per_sec": 8000.0},
                 keys={"distribution": "zipf", "keyspace": 50_000,
                       "exponent": 1.1},
                 read_fraction=0.9, value_size=16, session_requests=40,
                 reconnect_ns=500_000, requests=2000),
        SloSpec("redis-openloop", p50_ns=1_000_000,
                p99_ns=20_000_000, p999_ns=80_000_000,
                availability=0.99)),
}

#: (cell name, mode, loop) in report order, read off the table.
CELLS: List[Tuple[str, str, str]] = [
    (name, cell["mode"], cell["loop"])
    for name, cell in SCENARIOS["openloop"]["kvstore"].cells]


def scenario_spec(scenario: str, quick: bool) -> LoadSpec:
    """The scenario's LoadSpec, scaled down under ``--quick``."""
    spec, _ = OPENLOOP_SPECS[scenario]
    if not quick:
        return spec
    # A quarter of the traffic over fewer slots: the closed-loop cells
    # must keep their in-flight count below the p99 rank, or the
    # coordinated-omission contrast drowns in the smaller sample.
    return LoadSpec.from_dict({**spec.as_dict(),
                               "requests": spec.requests // 4,
                               "connections": 4})


# ---------------------------------------------------------------------------
# What every cell of a scenario shares: one stream, built once
# ---------------------------------------------------------------------------

#: scenario (= catalog app = wire protocol) -> (the release that
#: serves, the release the wave installs, the heap table the preload
#: warms, one preloaded entry in that app's own heap shape).
_WAVES: Dict[str, Tuple[str, str, str, Any]] = {
    "kvstore": ("1.0", "2.0", "table", "w"),
    "redis": ("2.0.0", "2.0.1", "db", ("string", "w")),
}


@dataclass(frozen=True)
class SharedStream:
    """One scenario's arrival stream, served unchanged by all its cells.

    ``payloads[i]`` is the wire form of ``events[i]``; the counters are
    the generator's and its pool's once the stream is exhausted.
    ``preload`` is copied into each cell's heap and never written.
    """

    events: Tuple[OpenRequest, ...]
    payloads: Tuple[bytes, ...]
    offered: int
    dropped: int
    sessions: int
    reconnects: int
    deferred_sends: int
    tracked_objects: int
    preload: Dict[str, Any]


@functools.lru_cache(maxsize=4)
def shared_stream(scenario: str, seed: int, quick: bool) -> SharedStream:
    """The scenario's stream, kept for the last few ``(scenario, seed,
    quick)``: the six cells of a scenario serve the same one."""
    spec = scenario_spec(scenario, quick)
    # One stream name per scenario: every cell sees the identical
    # arrival skeleton, so cells differ only in how they serve it.
    generator = OpenLoopGenerator(spec, seed, stream=f"openloop.{scenario}")
    events = tuple(generator.events())
    read, write = request_templates(scenario, "ol-", "v" * spec.value_size)
    entry = _WAVES[scenario][3]
    pool = generator.pool
    return SharedStream(
        events=events,
        payloads=tuple([(read if event.is_read else write) % event.key
                        for event in events]),
        offered=generator.offered, dropped=generator.dropped,
        sessions=pool.sessions_started, reconnects=pool.reconnects,
        deferred_sends=pool.deferred_sends,
        tracked_objects=pool.tracked_objects(),
        preload={f"warm-{index}": entry for index in range(
            PRELOAD_ENTRIES_QUICK if quick else PRELOAD_ENTRIES)})


# ---------------------------------------------------------------------------
# One cell: drive the shared arrival stream through one configuration
# ---------------------------------------------------------------------------

def _stack(scenario: str, mode: str) -> Stack:
    """The scenario's old release under the cell's runtime."""
    # The catalog and the DSU runtimes load with the first stack, not
    # with this module: lint only reads OPENLOOP_SPECS from it, and
    # hostbench counts its import as set-up time.
    from repro.apps import deploy
    from repro.core import Mvedsua
    from repro.servers.native import NativeRuntime
    runtime, kwargs = {
        "native": (NativeRuntime, {}),
        "restart": (NativeRuntime, {"with_kitsune": True}),
        "mve": (VaranRuntime, {"ring_capacity": 1 << 12}),
        "mvedsua": (Mvedsua, {"ring_capacity": 1 << 12}),
    }[mode]
    return deploy(scenario, _WAVES[scenario][0], runtime, **kwargs)


def run_openloop_cell(scenario: str, cell_index: int, seed: int,
                      quick: bool) -> Dict[str, Any]:
    """Run one cell with a writer in the spans slot; returns a picklable
    summary with the cell's :func:`~repro.obs.slo.collect_cell` as
    ``slo_cell``."""
    spans = Tracer()
    with observing(spans=spans):
        summary = run_cell("openloop", scenario, cell_index, seed, quick)
    summary["slo_cell"] = collect_cell(spans, summary["cell"],
                                       OPENLOOP_SPECS[scenario][1])
    return summary


def drive_cell(params: Dict[str, Any], seed: int,
               quick: bool) -> Dict[str, Any]:
    """The openloop rows' drive: serve the app's arrival stream through
    the cell's ``mode`` and ``loop``; returns the cell's summary."""
    scenario, mode, loop = params["app"], params["mode"], params["loop"]
    name = f"{mode}-{loop}"
    spec = scenario_spec(scenario, quick)
    stack = _stack(scenario, mode)
    # A chaos injector's openloop.arrival site can reshape the stream:
    # such a cell builds its own and leaves the memo to clean cells.
    shared = (shared_stream(scenario, seed, quick) if OBS.chaos is None
              else shared_stream.__wrapped__(scenario, seed, quick))
    _, new, table, _ = _WAVES[scenario]
    stack.server.heap[table].update(shared.preload)
    events = shared.events
    runtime = stack.runtime
    if mode == "mve":
        runtime.fork_follower(0)

    clients = [stack.client(f"{name}-c{slot}")
               for slot in range(spec.connections)]
    slot_done = [0] * spec.connections

    total = len(events)
    update_at = events[(total * 2) // 5].at_ns if total else 0
    promote_at = events[(total * 7) // 10].at_ns if total else 0
    finalize_at = events[(total * 17) // 20].at_ns if total else 0
    did_update = did_promote = did_finalize = False
    pause_ns = 0
    resume_ns: Optional[int] = None

    values: Dict[str, int] = {}
    window_values: Dict[str, int] = {}
    answered = requests = 0
    last_done = 0
    first_at = events[0].at_ns if events else 0
    last_at = events[-1].at_ns if events else 0

    for event, payload in zip(events, shared.payloads):
        at = event.at_ns
        if mode in ("restart", "mvedsua"):
            if not did_update and at >= update_at:
                did_update = True
                if mode == "restart":
                    from repro.dsu.kitsune import Kitsune
                    before = max(update_at, runtime.cpu.busy_until)
                    runtime.apply_update(Kitsune(stack.app.transforms),
                                         stack.app.version(new), update_at)
                    resume_ns = runtime.cpu.busy_until
                    pause_ns = resume_ns - before
                else:
                    attempt = stack.update(new, update_at)
                    if not attempt.ok:  # pragma: no cover - setup
                        raise RuntimeError(
                            f"update failed: {attempt.reason}")
                    # The leader's only in-band stall is the fork pause.
                    resume_ns = runtime.runtime.leader.cpu.busy_until
                    pause_ns = resume_ns - update_at
            if mode == "mvedsua" and did_update:
                if not did_promote and at >= promote_at:
                    did_promote = True
                    runtime.promote(max(at, last_done) + 1)
                elif did_promote and not did_finalize \
                        and at >= finalize_at:
                    did_finalize = True
                    runtime.finalize(max(at, last_done) + 1)

        send = at if loop == "open" else max(at, slot_done[event.slot])
        response, done = clients[event.slot].request(runtime, payload,
                                                     send)
        if mode == "mve":
            # Plain Varan does not self-drain (Mvedsua.pump does); keep
            # the follower caught up so the ring never fabricates
            # back-pressure the deployment would not have.
            runtime.drain_follower()
        slot_done[event.slot] = done
        last_done = max(last_done, done)
        requests += 1
        if response:
            answered += 1
        # Open-loop latency counts from the *arrival*, which is the
        # send instant here; a closed-loop client can only ever measure
        # from its own (deferred) send — that asymmetry is the
        # coordinated-omission story this subsystem exists to tell.
        latency = done - send
        key = str(latency)
        values[key] = values.get(key, 0) + 1
        if did_update and resume_ns is not None \
                and update_at <= at <= resume_ns:
            window_values[key] = window_values.get(key, 0) + 1

    if mode == "mvedsua" and did_update and not did_finalize:
        if not did_promote:  # pragma: no cover - spec floor is higher
            runtime.promote(last_done + 1)
        runtime.finalize(last_done + 2)

    return {
        "cell": name, "mode": mode, "loop": loop,
        "offered": shared.offered, "dropped": shared.dropped,
        "requests": requests, "answered": answered,
        "sessions": shared.sessions,
        "reconnects": shared.reconnects,
        "deferred_sends": shared.deferred_sends,
        "tracked_objects": shared.tracked_objects,
        "population": spec.population,
        "first_at_ns": first_at, "last_at_ns": last_at,
        "last_done_ns": last_done,
        "update_at_ns": update_at if did_update else None,
        "resume_ns": resume_ns, "pause_ns": pause_ns,
        "values": values, "window_values": window_values,
    }


# ---------------------------------------------------------------------------
# Report assembly (lossless value-dict merge, byte-identical per seed)
# ---------------------------------------------------------------------------

def _rate_per_sec(count: int, span_ns: int) -> int:
    if span_ns <= 0:
        return 0
    return round(count * 1_000_000_000 / span_ns)


def _cell_row(summary: Dict[str, Any],
              slo_spec: SloSpec) -> Dict[str, Any]:
    histogram = Histogram.from_counts("latency", summary["values"])
    window = Histogram.from_counts("latency.window",
                                   summary["window_values"])
    offered_span = summary["last_at_ns"] - summary["first_at_ns"]
    achieved_span = summary["last_done_ns"] - summary["first_at_ns"]
    budget = slo_spec.p99_ns or 0
    within = sum(count for key, count in summary["values"].items()
                 if int(key) <= budget)
    return {
        "cell": summary["cell"], "mode": summary["mode"],
        "loop": summary["loop"],
        "offered": summary["offered"], "dropped": summary["dropped"],
        "requests": summary["requests"],
        "answered": summary["answered"],
        "sessions": summary["sessions"],
        "reconnects": summary["reconnects"],
        "deferred_sends": summary["deferred_sends"],
        "tracked_objects": summary["tracked_objects"],
        "population": summary["population"],
        "offered_rps": _rate_per_sec(summary["requests"], offered_span),
        "achieved_rps": _rate_per_sec(summary["requests"],
                                      achieved_span),
        "p50_ns": histogram.quantile(0.50),
        "p99_ns": histogram.quantile(0.99),
        "p999_ns": histogram.quantile(0.999),
        "max_ns": histogram.max_value,
        "pause_ns": summary["pause_ns"],
        "window_requests": window.count,
        "window_p99_ns": window.quantile(0.99),
        "slo_availability": (round(within / summary["requests"], 4)
                             if summary["requests"] else 1.0),
        "violations": len(summary["slo_cell"]["violations"]),
    }


def build_openloop_report(scenario: str, seed: int, quick: bool,
                          summaries: List[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Assemble the ``repro-openloop/1`` report from cell summaries."""
    spec = scenario_spec(scenario, quick)
    _, slo_spec = OPENLOOP_SPECS[scenario]
    rows = [_cell_row(summary, slo_spec) for summary in summaries]
    by_cell = {row["cell"]: row for row in rows}

    budget = slo_spec.p99_ns or 0
    restart_open = by_cell["restart-open"]
    restart_closed = by_cell["restart-closed"]
    mvedsua_open = by_cell["mvedsua-open"]
    contrast = {
        "budget_p99_ns": budget,
        "restart_open_p99_ns": restart_open["p99_ns"],
        "restart_closed_p99_ns": restart_closed["p99_ns"],
        "mvedsua_open_p99_ns": mvedsua_open["p99_ns"],
        "mvedsua_closed_p99_ns": by_cell["mvedsua-closed"]["p99_ns"],
        "restart_pause_ns": restart_open["pause_ns"],
        "mvedsua_pause_ns": mvedsua_open["pause_ns"],
    }
    checks = [
        # The coordinated-omission demonstration: the same restart wave
        # looks far worse under open-loop arrivals than to the polite
        # closed-loop clients.
        {"check": "closed-loop-understates-restart-p99",
         "ok": restart_open["p99_ns"] > restart_closed["p99_ns"]},
        {"check": "restart-breaches-p99-budget",
         "ok": restart_open["p99_ns"] > budget},
        {"check": "mvedsua-within-p99-budget",
         "ok": mvedsua_open["p99_ns"] <= budget},
        {"check": "availability",
         "ok": all((row["answered"] / row["requests"]
                    if row["requests"] else 1.0)
                   >= (slo_spec.availability or 0.0)
                   for row in rows)},
        {"check": "no-dropped-arrivals",
         "ok": all(row["dropped"] == 0 for row in rows)},
    ]
    return {
        "schema": OPENLOOP_SCHEMA,
        "scenario": scenario,
        "seed": seed,
        "quick": quick,
        "spec": spec.as_dict(),
        "slo": slo_spec.as_dict(),
        "cells": rows,
        "contrast": contrast,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


#: What a ``repro-openloop/1`` report looks like (:mod:`repro.report`).
OPENLOOP_SHAPE = Obj({
    "schema": const(OPENLOOP_SCHEMA), "scenario": ANY, "seed": ANY,
    "spec": Via(Obj({}), lambda spec: LoadSpec.from_dict(spec).problems()),
    "slo": SPEC_SHAPE,
    "cells": ListOf(Obj({
        "cell": ANY, "offered": NAT, "requests": NAT, "answered": NAT,
        "sessions": NAT, "tracked_objects": NAT, "pause_ns": NAT})),
    "contrast": ANY, "checks": CHECKS_SHAPE, "ok": ANY,
})


def _cell_problems(report: Dict[str, Any]) -> List[str]:
    """Cross-checks of a shape-valid report: the cells are the declared
    ones in order, none completed more than it was offered, and none
    tracks more objects than the spec has connection slots."""
    found: List[str] = []
    expected = [name for name, _, _ in CELLS]
    got = [row["cell"] for row in report["cells"]]
    if got != expected:
        found.append(f"cells are {got!r}, expected {expected!r}")
    connections = LoadSpec.from_dict(report["spec"]).connections
    for row in report["cells"]:
        if row["requests"] > row["offered"]:
            found.append(f"cell {row['cell']!r} completed more requests "
                         f"than were offered (tampered?)")
        if row["tracked_objects"] > connections:
            found.append(
                f"cell {row['cell']!r} tracks {row['tracked_objects']} "
                f"objects, more than the {connections} connection slots "
                f"— the flyweight bound is broken")
    return found


def validate_openloop_report(report: Any) -> List[str]:
    """Problems with a ``repro-openloop/1`` report (empty = valid)."""
    return problems(report, OPENLOOP_SHAPE, "", _cell_problems)


# ---------------------------------------------------------------------------
# Sharded execution (byte-identical at any worker count)
# ---------------------------------------------------------------------------

def run_openloop_scenario(name: str, *, seed: int = 1,
                          quick: bool = False, workers: int = 1,
                          slo: bool = False) -> Dict[str, Any]:
    """Run every cell of scenario ``name``; returns the report.

    ``slo=True`` (the ``--slo`` path) also embeds the full
    ``repro-slo/1`` section, assembled from the same cells' own
    :func:`~repro.obs.slo.collect_cell` summaries, as ``slo_report``.
    """
    summaries = run_cells("openloop", name, run_openloop_cell, seed=seed,
                          quick=quick, workers=workers)
    report = build_openloop_report(name, seed, quick, summaries)
    if slo:
        report["slo_report"] = build_slo_report(
            name, seed, OPENLOOP_SPECS[name][1],
            [summary["slo_cell"] for summary in summaries])
    return report
