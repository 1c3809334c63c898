"""SLO cells for ``python -m repro slo``.

Each ``slo`` row of :data:`repro.scenarios.SCENARIOS` is a list of
independent *cells* — a ring capacity in the fig7 sweep, a vsftpd update
pair in the table1 sweep, a whole fleet round for canary-kvstore.
:func:`run_slo_cell` runs one under a
:class:`~repro.obs.spans.SpanCollector` and no tracer, then reduces it
to the JSON/pickle-safe summary :func:`repro.obs.slo.collect_cell`
defines.  :func:`run_slo_scenario` shards cells with
:func:`repro.scenarios.run_cells` and assembles the ``repro-slo/1``
report — byte-identical at any worker count because per-phase latency
histograms merge losslessly (:meth:`~repro.obs.metrics.Histogram.merge`)
and nothing about the pool reaches the payload.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.slo import SloSpec, build_slo_report, collect_cell
from repro.obs.spans import SpanCollector
from repro.scenarios import SCENARIOS, run_cell, run_cells
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


def run_slo_cell(scenario: str, cell_index: int, seed: int,
                 quick: bool) -> Dict[str, Any]:
    """Run one cell under a fresh span collector; returns the
    pickle-safe cell summary."""
    spans = SpanCollector()
    with observing(spans=spans):
        run_cell("slo", scenario, cell_index, seed, quick)
    name, _ = SCENARIOS["slo"][scenario].cells[cell_index]
    return collect_cell(spans, name, SLO_SPECS[scenario])


def run_slo_scenario(name: str, *, seed: int = 1, quick: bool = False,
                     workers: int = 1) -> Dict[str, Any]:
    """Run every cell of scenario ``name``; returns the ``repro-slo/1``
    report (byte-identical at any ``workers`` count)."""
    summaries = run_cells("slo", name, run_slo_cell, seed=seed,
                          quick=quick, workers=workers)
    return build_slo_report(name, seed, SLO_SPECS[name], summaries)
