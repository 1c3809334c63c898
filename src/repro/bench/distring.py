"""Local vs distributed ring: the latency cost of crossing a link.

This driver runs the same kvstore update lifecycle four times — once
over the in-process ring (the byte-identical baseline every golden
pins) and once per link-latency point over a :class:`DistributedRing`
— and reports, per row, the request p99, the ring-stall count, and
the fraction of requests inside a 3 ms SLO budget.  The table is the
``emit_distring`` section of EXPERIMENTS.md (its exact gauges are
pinned in ``tests/test_distring.py``); everything here is virtual-time
and therefore bit-identical for a given seed.

The shape under test: a follower across a link replays later than a
local one, so leader publishes hit the bounded in-flight window and
surface as ring stalls.  Stalls and tail latency should grow
monotonically with one-way link latency, while the SLO availability
column shows how much link budget a 3 ms per-request bound tolerates.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps import deploy
from repro.core import Stage
from repro.net.ring_wire import RingLink
from repro.obs.slo import summarize_latencies
from repro.sim.engine import MILLISECOND

#: Ring capacity for the sweep — big enough that the *window*, not the
#: ring, is the binding constraint on distributed rows.
RING_CAPACITY = 64

#: In-flight frame window for the distributed rows (see
#: docs/distributed.md for the tuning story).
WINDOW = 4

#: Requests per row, spaced 1 ms apart: enough to cross the whole
#: update lifecycle with a steady tail on both sides.
COMMANDS = 240

#: Per-request SLO budget the availability column scores against.
SLO_BUDGET_NS = 3 * MILLISECOND

#: One-way link latencies the distributed rows sweep.
LINK_LATENCY_POINTS = (100_000, 1_000_000, 5_000_000)

def _run_row(seed: int, link_latency_ns: int,
             commands: int = COMMANDS) -> Dict[str, Any]:
    """One lifecycle run; ``link_latency_ns == 0`` means the local ring."""
    # Lifecycle steps at 1/4, 1/2 and 3/4 of the request span, so
    # phases B and C see sustained load at any command budget.
    span = commands * MILLISECOND
    update_at = span // 4
    promote_at = span // 2
    finalize_at = 3 * span // 4
    link = None
    if link_latency_ns:
        link = RingLink(latency_ns=link_latency_ns, window=WINDOW)
    stack = deploy("kvstore", "1.0", ring_capacity=RING_CAPACITY,
                   ring_link=link)
    mvedsua = stack.runtime
    client = stack.client()

    update = None
    for index in range(commands):
        at = (index + 1) * MILLISECOND
        if update is None and at >= update_at:
            update = stack.update("2.0", update_at)
            if not update.ok:  # pragma: no cover - setup invariant
                raise RuntimeError(f"update failed: {update.reason}")
        if at >= promote_at and mvedsua.stage is Stage.OUTDATED_LEADER:
            mvedsua.promote(promote_at)
        if at >= finalize_at and mvedsua.stage is Stage.UPDATED_LEADER \
                and mvedsua.runtime.in_mve_mode:
            mvedsua.finalize(finalize_at)
        key = (index * (2 * seed + 1)) % 97
        line = b"GET k%d" % key if index % 3 == 2 \
            else b"PUT k%d v%d" % (key, index)
        if not client.command(mvedsua, line, at):
            raise RuntimeError(f"request {index} ({line!r}) got no reply")

    runtime = mvedsua.runtime
    latencies = client.latencies_ns
    within = sum(1 for value in latencies if value <= SLO_BUDGET_NS)
    row: Dict[str, Any] = {
        "ring": "distributed" if link else "local",
        "link_latency_ns": link_latency_ns,
        "requests": len(latencies),
        "syscalls": runtime.total_syscalls,
        "ring_stalls": runtime.ring_stalls,
        "ring_high_watermark": runtime.ring.high_watermark,
        "slo_availability": within / len(latencies) if latencies else 1.0,
        "finalized": mvedsua.stage is Stage.SINGLE_LEADER
        and mvedsua.current_version == "2.0",
    }
    row.update(summarize_latencies(latencies))
    if link is not None:
        wire = runtime.ring.stats()
        row["frames"] = wire["frames_sent"]
        row["wire_bytes"] = wire["bytes_sent"]
        row["inflight_high_watermark"] = wire["inflight_high_watermark"]
    return row


def link_label(link_latency_ns: int) -> str:
    """Human name for a sweep point (``0`` is the local ring)."""
    if link_latency_ns == 0:
        return "local"
    if link_latency_ns % 1_000_000 == 0:
        return f"{link_latency_ns // 1_000_000}ms"
    return f"{link_latency_ns // 1_000}us"


def run_distring_comparison(seed: int = 1, *,
                            commands: int = COMMANDS) -> Dict[str, Any]:
    """The full local-vs-distributed sweep, as one JSON-able report."""
    rows: List[Dict[str, Any]] = [_run_row(seed, 0, commands)]
    for latency_ns in LINK_LATENCY_POINTS:
        rows.append(_run_row(seed, latency_ns, commands))
    return {
        "schema": "repro-distring-bench/1",
        "seed": seed,
        "commands": commands,
        "ring_capacity": RING_CAPACITY,
        "window": WINDOW,
        "slo_budget_ns": SLO_BUDGET_NS,
        "rows": rows,
    }


def main() -> None:  # pragma: no cover - exercised via EXPERIMENTS.md
    import json
    print(json.dumps(run_distring_comparison(), indent=2, sort_keys=True))


if __name__ == "__main__":  # pragma: no cover
    main()
