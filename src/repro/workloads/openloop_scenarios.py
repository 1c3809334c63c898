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

Cells run under a span collector and no tracer (the report reads spans
only) and reduce to picklable summaries (exact latency→count dicts), so
``run_openloop_scenario`` shards cells across workers exactly like the
SLO/chaos runners and the ``repro-openloop/1`` report is byte-identical
at any worker count.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.mve import VaranRuntime
from repro.obs.metrics import Histogram
from repro.obs.slo import (CHECKS_SHAPE, SPEC_SHAPE, SloSpec,
                           build_slo_report, collect_cell)
from repro.obs.spans import SpanCollector
from repro.parallel import map_items
from repro.report import ANY, NAT, ListOf, Obj, Via, const, problems
from repro.sites import observing
from repro.workloads.openloop import (LoadSpec, OpenLoopGenerator,
                                      format_request)

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

#: (cell name, mode, loop) in report order.
CELLS: List[Tuple[str, str, str]] = [
    ("native-open", "native", "open"),
    ("mve-open", "mve", "open"),
    ("restart-open", "restart", "open"),
    ("restart-closed", "restart", "closed"),
    ("mvedsua-open", "mvedsua", "open"),
    ("mvedsua-closed", "mvedsua", "closed"),
]


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
# One cell: drive the shared arrival stream through one configuration
# ---------------------------------------------------------------------------

#: scenario (= catalog app = wire protocol) -> (the release that
#: serves, the release the wave installs, the heap table the preload
#: warms).
_WAVES: Dict[str, Tuple[str, str, str]] = {
    "kvstore": ("1.0", "2.0", "table"),
    "redis": ("2.0.0", "2.0.1", "db"),
}


def _stack(scenario: str, mode: str, preload: int) -> Stack:
    """The scenario's old release under the cell's runtime, warmed."""
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
    old, _, table = _WAVES[scenario]
    stack = deploy(scenario, old, runtime, **kwargs)
    warm = stack.server.heap[table]
    for index in range(preload):
        warm[f"warm-{index}"] = "w"
    return stack


def run_openloop_cell(scenario: str, cell_index: int, seed: int,
                      quick: bool) -> Dict[str, Any]:
    """Run one cell under a span collector; returns a picklable summary."""
    name, mode, loop = CELLS[cell_index]
    spec = scenario_spec(scenario, quick)
    _, slo_spec = OPENLOOP_SPECS[scenario]
    preload = PRELOAD_ENTRIES_QUICK if quick else PRELOAD_ENTRIES

    spans = SpanCollector()
    with observing(spans=spans):
        stack = _stack(scenario, mode, preload)
        # One stream name per scenario: every cell sees the identical
        # arrival skeleton, so cells differ only in how they serve it.
        generator = OpenLoopGenerator(spec, seed,
                                      stream=f"openloop.{scenario}")
        events = list(generator.events())
        summary = _drive(scenario, name, mode, loop, spec, slo_spec,
                         stack, generator, events, spans)
    return summary


def _drive(scenario: str, name: str, mode: str, loop: str,
           spec: LoadSpec, slo_spec: SloSpec, stack: Stack,
           generator: OpenLoopGenerator, events, spans) -> Dict[str, Any]:
    runtime = stack.runtime
    new = _WAVES[scenario][1]
    if mode == "mve":
        runtime.fork_follower(0)

    value = "v" * spec.value_size
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

    for event in events:
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
        payload = format_request(event, scenario, value)
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

    pool = generator.pool
    return {
        "cell": name, "mode": mode, "loop": loop,
        "offered": generator.offered, "dropped": generator.dropped,
        "requests": requests, "answered": answered,
        "sessions": pool.sessions_started,
        "reconnects": pool.reconnects,
        "deferred_sends": pool.deferred_sends,
        "tracked_objects": pool.tracked_objects(),
        "population": spec.population,
        "first_at_ns": first_at, "last_at_ns": last_at,
        "last_done_ns": last_done,
        "update_at_ns": update_at if did_update else None,
        "resume_ns": resume_ns, "pause_ns": pause_ns,
        "values": values, "window_values": window_values,
        "slo_cell": collect_cell(spans, name, slo_spec),
    }


# ---------------------------------------------------------------------------
# Report assembly (lossless value-dict merge, byte-identical per seed)
# ---------------------------------------------------------------------------

def _histogram(values: Dict[str, int], name: str) -> Histogram:
    histogram = Histogram(name)
    for key, count in values.items():
        value = int(key)
        histogram.count += count
        histogram.total += value * count
        histogram.counts[value] = histogram.counts.get(value, 0) + count
        if histogram.min_value is None or value < histogram.min_value:
            histogram.min_value = value
        if histogram.max_value is None or value > histogram.max_value:
            histogram.max_value = value
    return histogram


def _rate_per_sec(count: int, span_ns: int) -> int:
    if span_ns <= 0:
        return 0
    return round(count * 1_000_000_000 / span_ns)


def _cell_row(summary: Dict[str, Any],
              slo_spec: SloSpec) -> Dict[str, Any]:
    histogram = _histogram(summary["values"], "latency")
    window = _histogram(summary["window_values"], "latency.window")
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
    if name not in OPENLOOP_SPECS:
        raise KeyError(f"unknown openloop scenario {name!r} "
                       f"(have: {', '.join(sorted(OPENLOOP_SPECS))})")
    summaries = map_items(
        functools.partial(run_openloop_cell, name, seed=seed, quick=quick),
        len(CELLS), workers)
    report = build_openloop_report(name, seed, quick, summaries)
    if slo:
        report["slo_report"] = build_slo_report(
            name, seed, OPENLOOP_SPECS[name][1],
            [summary["slo_cell"] for summary in summaries])
    return report
