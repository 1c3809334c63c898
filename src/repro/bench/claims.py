"""The claims ledger: what the paper's evaluation says, written once.

One :class:`Claim` per statement — its id, where the paper makes it, the
sentence, the paper's value, the band inside which a measurement still
supports it, whether this repository was *fitted* to it (``calibrated``)
or *predicts* it (``emergent``), and how to read the measurement off the
experiment drivers' own result objects.  Whatever quotes a paper number
(the drivers' ``paper`` columns, EXPERIMENTS.md) looks it up here by id,
and ``python -m repro claims`` measures every row and exits 1 naming
each one out of band.  Nothing is imported from ``repro`` until then.
"""

from __future__ import annotations

import importlib
import math
import statistics
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

CALIBRATED, EMERGENT = "calibrated", "emergent"

#: How a number in each unit is printed; ``""`` is a plain count.
_FORMATS = {"%": "{:.0%}", "ms": "{:,.0f} ms", "s": "{:.2f} s",
            "ops/s": "{:,.0f} ops/s", "×": "{:.2f}×"}


class Band(NamedTuple):
    """When a measurement supports the paper's value; ``text`` says so
    in print, each ``{}`` taking one of ``bounds`` in the claim's unit."""

    text: str
    bounds: tuple
    holds: Callable[[Any, Any], bool]       # (measured, paper)


def exactly() -> Band:
    return Band("= paper", (), lambda measured, paper: measured == paper)


def within(*, abs: float = None, rel: float = None) -> Band:
    if rel is not None:
        return Band(f"paper ± {rel:.0%} of it", (), lambda measured, paper:
                    math.fabs(measured - paper) < rel * math.fabs(paper))
    return Band("paper ± {}", (abs,), lambda measured, paper:
                math.fabs(measured - paper) < abs)


def between(low: float, high: float) -> Band:
    return Band("{} … {}", (low, high),
                lambda measured, paper: low < measured < high)


def above(bound: float) -> Band:
    return Band("> {}", (bound,), lambda measured, paper: measured > bound)


def below(bound: float) -> Band:
    return Band("< {}", (bound,), lambda measured, paper: measured < bound)


class Claim(NamedTuple):
    id: str
    where: str                  # the paper's section, table or figure
    says: str                   # the statement under test
    #: in ``unit``, or the paper's own words where it gives no number
    paper: Any
    unit: str
    band: Band
    kind: str                   # CALIBRATED | EMERGENT
    measure: Callable[["Results"], Any]

    def show(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        if self.unit == "yes/no":
            return "yes" if value else "no"
        return _FORMATS.get(self.unit, "{:g}").format(value)


class Results:
    """The drivers' result objects, each produced on first use — or
    handed in: ``Results(fig7=rows)`` runs nothing to judge ``fig7.``
    claims."""

    DRIVERS = {
        "table1": "table1.run_table1",
        "other_apps": "table1.other_apps_rule_counts",
        "table2": "table2.run_table2",
        "fig6": "fig6.run_fig6",
        "fig7": "fig7.run_fig7",
        "e1": "faults.run_e1", "e2": "faults.run_e2", "e3": "faults.run_e3",
        "strategies": "ablations.run_upgrade_strategies",
        "ttst": "ablations.run_ttst_matrix",
        "comparators": "ablations.run_comparators",
        "cluster": "cluster_bench.run_cluster_comparison",
        "semantic": "semantic.run_semantic_redis_lifecycle",
    }

    def __init__(self, **have: Any) -> None:
        self.__dict__.update(have)

    def __getattr__(self, name: str) -> Any:    # only when not yet held
        if name not in self.DRIVERS:
            raise AttributeError(name)
        module, function = self.DRIVERS[name].split(".")
        value = getattr(importlib.import_module(f"repro.bench.{module}"),
                        function)()
        setattr(self, name, value)
        return value


Measure = Callable[[Results], Any]


def _on(driver: str, read: Callable[[Any], Any], **match: Any) -> Measure:
    """``read`` of the one row of ``driver``'s result whose attributes
    equal ``match``."""
    return lambda r: read(next(
        row for row in getattr(r, driver)
        if all(getattr(row, key) == value for key, value in match.items())))


def _rows(where: str, kind: str, rows: Iterable[tuple]) -> List[Claim]:
    """Claims from ``(id, sentence, paper, unit, band, measure)``."""
    return [Claim(claim_id, where, says, paper, unit, band, kind, measure)
            for claim_id, says, paper, unit, band, measure in rows]


#: unit and band of a yes/no claim, whose paper value is the answer.
_YES_NO = ("yes/no", exactly())


# -- Table 1: rewrite rules per update pair ---------------------------------

#: app -> (its releases in order, rules the paper needed per update).
_RULES = {
    "vsftpd": ("1.1.0 1.1.1 1.1.2 1.1.3 1.2.0 1.2.1 1.2.2 "
               "2.0.0 2.0.1 2.0.2 2.0.3 2.0.4 2.0.5 2.0.6",
               (0, 2, 0, 2, 0, 0, 3, 0, 1, 1, 1, 1, 0)),
    "redis": ("2.0.0 2.0.1 2.0.2 2.0.3", (1, 0, 0)),
    "memcached": ("1.2.2 1.2.3 1.2.4", (0, 0)),
}


def _table1() -> List[Claim]:
    def rules(app: str, old: str, new: str) -> Measure:
        if app == "vsftpd":
            return _on("table1", attrgetter("rules"), old=old)
        return lambda r: next(got for name, pair, got, _ in r.other_apps
                              if (name, pair) == (app, f"{old} -> {new}"))
    return _rows("Table 1, §1.2", CALIBRATED, [
        (f"table1.{app}.{old}->{new}",
         f"rewrite rules needed to update {app} {old} to {new}", count, "",
         exactly(), rules(app, old, new))
        for app, (releases, counts) in _RULES.items()
        for old, new, count in zip(releases.split(), releases.split()[1:],
                                   counts)] + [
        ("table1.average", "rules per Vsftpd update, on average", 0.85, "",
         exactly(), lambda r: round(statistics.mean(
             row.rules for row in r.table1), 2))]) + _rows(
        "Table 1", EMERGENT, [
            ("table1.validated", "Vsftpd pairs that stay in sync with their "
             "rules and, needing any, diverge without them",
             len(_RULES["vsftpd"][1]), "", exactly(),
             lambda r: sum(row.ok for row in r.table1))])


# -- Table 2: steady-state performance and overhead -------------------------

#: ops/s for native, throughput drop vs native for the rest.
_TABLE2 = {
    "memcached": {"native": 249_000, "kitsune": 0.03, "varan-1": 0.06,
                  "mvedsua-1": 0.09, "varan-2": 0.50, "mvedsua-2": 0.52},
    "redis": {"native": 73_000, "kitsune": -0.01, "varan-1": 0.08,
              "mvedsua-1": 0.06, "varan-2": 0.44, "mvedsua-2": 0.42},
    "vsftpd-small": {"native": 2_667, "kitsune": 0.05, "varan-1": 0.03,
                     "mvedsua-1": 0.08, "varan-2": 0.24, "mvedsua-2": 0.25},
    "vsftpd-large": {"native": 118, "kitsune": 0.02, "varan-1": 0.02,
                     "mvedsua-1": 0.03, "varan-2": 0.25, "mvedsua-2": 0.25},
}


def _cell(app: str, mode: str, field: str = "overhead") -> Measure:
    return _on("table2", attrgetter(field), app=app, mode=mode)


def _table2() -> List[Claim]:
    claims = []
    for app, paper in _TABLE2.items():
        single, leader = _cell(app, "mvedsua-1"), _cell(app, "mvedsua-2")
        fitted, predicted = [
            [(f"table2.{app}.{mode}", f"{app}, throughput drop under {mode}",
              paper[mode], "%", within(abs=0.05), _cell(app, mode))
             for mode in modes]
            for modes in (("kitsune", "varan-1", "varan-2"),
                          ("mvedsua-1", "mvedsua-2"))]
        claims += _rows("Table 2", CALIBRATED, [
            (f"table2.{app}.native", f"{app}, native throughput",
             paper["native"], "ops/s", within(rel=0.05),
             _cell(app, "native", "ops_per_sec"))] + fitted)
        claims += _rows("Table 2, §6.1", EMERGENT, predicted + [
            (f"table2.{app}.single-leader-band",
             "with no update in flight Mvedsua costs 3–9%", "3–9%", "%",
             between(0.0, 0.10), single),
            (f"table2.{app}.leader-band",
             "while an update is validated it costs 25–52%", "25–52%", "%",
             between(0.20, 0.55), leader),
            (f"table2.{app}.mvedsua-2>mvedsua-1",
             "validating costs more than waiting (margin, points)",
             paper["mvedsua-2"] - paper["mvedsua-1"], "%", above(0.0),
             lambda r, single=single, leader=leader: leader(r) - single(r))])
    return claims


def _semantic() -> List[Claim]:
    """The semantic stack (real Redis, ring, rules) through one update
    under Memtier load, against the fluid model behind Table 2."""
    def drop(r: Results) -> float:
        return 1 - (r.semantic.phase("outdated-leader").ops_per_sec
                    / r.semantic.phase("single-before").ops_per_sec)

    def model_drop(r: Results) -> float:
        return 1 - (_cell("redis", "mvedsua-2", "ops_per_sec")(r)
                    / _cell("redis", "mvedsua-1", "ops_per_sec")(r))
    return _rows("Table 2 (cross-check)", EMERGENT, [
        ("semantic.redis.diverges", "a full Redis update under load "
         "diverges", False, *_YES_NO, lambda r: r.semantic.diverged),
        ("semantic.redis.update-succeeds", "…and ends on 2.0.1", True,
         *_YES_NO, lambda r: r.semantic.update_succeeded),
        ("semantic.redis.drop-vs-model", "its MVE-phase drop agrees with "
         "the fluid model's (difference, points)", 0.0, "%",
         between(-0.06, 0.06), lambda r: drop(r) - model_drop(r))])


# -- Figure 6: throughput through all update stages -------------------------

_BEFORE, _DURING, _AFTER = ("single-leader (0-120s)", "mve (125-235s)",
                            "single-leader (245-360s)")
#: (id, sentence, paper — None: Table 2's Mvedsua-2 —, unit, band, what
#: to read off one application's series)
_FIG6 = (
    ("never-stops", "service never stops during the updating process "
     "(slowest 1 s bin)", "> 0", "ops/s", above(0),
     lambda series: series.summary()["min-bin"]),
    ("mve-drop", "the MVE phase costs what Table 2's Mvedsua-2 row says",
     None, "%", between(0.20, 0.55), lambda series:
     1 - series.summary()[_DURING] / series.summary()[_BEFORE]),
    ("recovers", "throughput is back at the single-leader level after "
     "finalization (relative gap)", 0.0, "%", below(0.02), lambda series:
     math.fabs(series.summary()[_AFTER] / series.summary()[_BEFORE] - 1)),
    ("forks-on-request", "the follower is forked when the update is "
     "requested", 120.0, "s", exactly(),
     lambda series: series.result.t1_forked / 1e9),
    ("finalizes", "the old version is terminated on schedule", 240.0, "s",
     exactly(), lambda series: (series.result.t6_finalized or math.nan) / 1e9),
)


def _fig6() -> List[Claim]:
    return _rows("Fig. 6", EMERGENT, [
        (f"fig6.{app}.{slug}", says,
         _TABLE2[app]["mvedsua-2"] if paper is None else paper, unit, band,
         _on("fig6", read, app=app))
        for app in ("memcached", "redis")
        for slug, says, paper, unit, band, read in _FIG6])


# -- Figure 7 and §6.1: update pause vs ring size, update time --------------

#: label -> (the paper's maximum latency in ms, band, kind).  The two
#: small rings are claimed by their orderings below; their magnitudes,
#: which ``ring_entries_per_op`` was fitted to and misses by 10-25%,
#: only have to be seconds, i.e. not masked.
_FIG7 = {
    "native": (100, within(abs=15), CALIBRATED),
    "kitsune": (5040, within(rel=0.20), CALIBRATED),
    "mvedsua-2^10": (7130, above(1000), CALIBRATED),
    "mvedsua-2^20": (5330, above(1000), CALIBRATED),
    "mvedsua-2^24": (117, within(abs=25), CALIBRATED),
    "immediate-promotion": (3000, above(1000), EMERGENT),
}
#: (id, numerator, denominator, band, sentence): ratios of two rows.
_FIG7_RATIOS = (
    ("", "mvedsua-2^10", "kitsune", above(1),
     "a too-small ring is worse than just pausing with Kitsune"),
    ("", "mvedsua-2^10", "mvedsua-2^20", above(1),
     "a bigger ring shrinks the pause"),
    ("", "mvedsua-2^20", "mvedsua-2^24", above(1),
     "a bigger ring shrinks the pause"),
    ("", "immediate-promotion", "mvedsua-2^24", above(1),
     "skipping the outdated-leader drain re-introduces the pause"),
    ("", "kitsune", "immediate-promotion", above(1),
     "…though less of it than Kitsune's"),
    ("", "mvedsua-2^20", "immediate-promotion", above(1),
     "…and less than a 2^20 ring leaves"),
    ("2^20-regime", "mvedsua-2^20", "kitsune", between(0.5, 1.5),
     "a 2^20 ring does not mask the pause: it stays in Kitsune's regime"),
    ("2^24-near-native", "mvedsua-2^24", "native", below(2),
     "a 2^24 ring absorbs the whole update"),
    ("masking", "kitsune", "mvedsua-2^24", above(40),
     "a 5 s pause is masked down to the fork cost"),
)


def _fig7() -> List[Claim]:
    def latency(label: str) -> Measure:
        return _on("fig7", attrgetter("max_latency_ms"), label=label)
    magnitudes = [
        Claim(f"fig7.{label}", "Fig. 7, §6.1",
              f"maximum request latency, {label}", paper, "ms", band, kind,
              latency(label))
        for label, (paper, band, kind) in _FIG7.items()]
    return magnitudes + _rows("Fig. 7, §6.1", EMERGENT, [
        (f"fig7.{name or f'{over}>{under}'}", f"{says} ({over} / {under})",
         _FIG7[over][0] / _FIG7[under][0], "×", band,
         lambda r, over=latency(over), under=latency(under):
         over(r) / under(r))
        for name, over, under, band, says in _FIG7_RATIOS]) + _rows(
        "§6.1 fn. 11", CALIBRATED, [
            ("update-time.follower", "the dynamic update runs this long on "
             "the follower while the leader keeps serving", 6.2, "s",
             within(rel=0.10), _on(
                 "fig7", lambda row: (row.result.t2_updated
                                      - row.result.t1_forked) / 1e9,
                 label="mvedsua-2^24"))])


# -- §6.2: fault tolerance ---------------------------------------------------


def _faults() -> List[Claim]:
    return _rows("§6.2", EMERGENT, [
        (f"{name}.{system}.{slug}", says.format(fault), paper, *_YES_NO,
         _on(name, attrgetter(field), system=system))
        for name, fault in (("e1", "an error in the new code"),
                            ("e2", "an error in the state transformation"))
        for system, slug, field, paper, says in (
            ("kitsune", "crashes", "fault_triggered", True,
             "{} crashes the server updated by Kitsune alone"),
            ("kitsune", "survives", "service_survived", False,
             "…which stays down"),
            ("mvedsua", "survives", "service_survived", True,
             "under Mvedsua clients never notice"),
            ("mvedsua", "rolls-back", "rolled_back", True,
             "…and the update is rolled back"))] + [
        ("e3.diverges-without-reset", "without the LibEvent reset callback "
         "the update diverges spuriously", True, *_YES_NO,
         lambda r: r.e3.divergence_without_reset.fault_triggered),
        ("e3.survives-divergence", "…harmlessly", True, *_YES_NO,
         lambda r: r.e3.divergence_without_reset.service_survived),
        ("e3.all-install", "retried after 500 ms waits, every update "
         "eventually installs", 1.0, "%", exactly(),
         lambda r: statistics.mean(t.installed for t in r.e3.trials))]
    ) + _rows("§6.2", CALIBRATED, [
        ("e3.max-retries", "…after at most 8 retries", 8, "", exactly(),
         lambda r: r.e3.max_retries),
        ("e3.median-retries", "…2 in the median", 2, "", exactly(),
         lambda r: r.e3.median_retries)])


# -- §2.2 / §7 ablations and the §1.1 cluster contrast ----------------------

#: (strategy, claim, the outcome's field, paper's answer, sentence)
_STRATEGIES = (
    ("stop-restart", "keeps-state", "state_preserved", False,
     "stop/restart loses the state"),
    ("checkpoint-restart", "succeeds", "upgrade_succeeded", False,
     "checkpoint/restart fails when the state format changed"),
    ("kitsune", "succeeds", "upgrade_succeeded", True,
     "Kitsune installs the update…"),
    ("kitsune", "keeps-state", "state_preserved", True,
     "…and keeps the state, pausing for the whole transform"),
    ("mvedsua", "succeeds", "upgrade_succeeded", True,
     "Mvedsua installs the update…"),
    ("mvedsua", "keeps-state", "state_preserved", True,
     "…and keeps the state"),
)
#: (slug, the driver's fault label, does TTST catch it?) — Mvedsua
#: catches all but the control.
_TTST = (("drops-table", "transformer drops the table", True),
         ("uninitialised-field", "uninitialised field (clean round trip)",
          False),
         ("reversibly-wrong", "reversibly-wrong transform pair", False),
         ("new-code-bug", "bug in the new code", False),
         ("control", "correct update (control)", False))


def _ablations() -> List[Claim]:
    def pause(strategy: str) -> Measure:
        return _on("strategies", attrgetter("pause_ns"), strategy=strategy)

    def best_case(system: str) -> Measure:
        """A comparator's low end of the Redis throughput drop."""
        return _on("comparators", lambda row: float(
            row.redis_overhead.split("-")[0].rstrip("%")) / 100, system=system)
    return _rows("§2.2", EMERGENT, [
        (f"strategies.{name}.{slug}", says, paper, *_YES_NO,
         _on("strategies", attrgetter(field), strategy=name))
        for name, slug, field, paper, says in _STRATEGIES] + [
        ("strategies.kitsune-pause>10x-mvedsua", "Mvedsua's leader pause "
         "is an order of magnitude below Kitsune's (kitsune / mvedsua)",
         "≥ 10×", "×", above(10),
         lambda r: pause("kitsune")(r) / pause("mvedsua")(r))]
    ) + _rows("§7", EMERGENT, [
        (f"ttst.{slug}.{system}-catches", f"{fault}: {system} catches it",
         paper, *_YES_NO,
         _on("ttst", attrgetter(f"{system}_catches"), fault=fault))
        for slug, fault, ttst in _TTST
        for system, paper in (("ttst", ttst),
                              ("mvedsua", slug != "control"))]
    ) + _rows("§7", CALIBRATED, [
        (f"lockstep.{system.lower()}.all-capabilities",
         f"{system} masks the pause, catches errors during and after the "
         "update, keeps the state and allows representation changes",
         system == "Mvedsua-2", *_YES_NO, _on(
             "comparators", lambda row: all(row.capabilities.values()),
             system=system))
        for system in ("Mvedsua-2", "MUC", "Mx", "Imago")]
    ) + _rows("§7, Table 2", CALIBRATED, [
        ("lockstep.muc>mvedsua-1", "MUC (23.2%–87.1%) costs more at best "
         "than Mvedsua with no update in flight (Redis; margin, points)",
         0.232 - _TABLE2["redis"]["mvedsua-1"], "%", above(0.0),
         lambda r: best_case("MUC")(r) - best_case("Mvedsua-1")(r)),
        ("lockstep.mx", "Mx slows Redis 3×–16× (best-case throughput drop)",
         "3×–16×", "%", above(0.50), best_case("Mx")),
        ("lockstep.imago", "Imago slows it up to 1000× (best-case "
         "throughput drop)", "up to 1000×", "%", above(0.90),
         best_case("Imago"))])


def _cluster() -> List[Claim]:
    return _rows("§1.1/§1.2", EMERGENT, [
        ("cluster.rolling.sessions-dropped",
         "a rolling restart drops every long-lived session", 1.0, "%",
         exactly(), lambda r: (r.cluster.rolling.total_sessions_dropped
                               / r.cluster.rolling_sessions_before)),
        ("cluster.rolling.state-lost",
         "…and loses every node's in-memory state", 1.0, "%", exactly(),
         lambda r: min(1.0, r.cluster.rolling.total_state_lost
                       / r.cluster.state_entries_before)),
        ("cluster.mvedsua.sessions-dropped",
         "Mvedsua node by node drops no session", 0, "", exactly(),
         lambda r: r.cluster.mvedsua.total_sessions_dropped),
        ("cluster.mvedsua.state-lost", "…loses no state", 0, "", exactly(),
         lambda r: r.cluster.mvedsua.total_state_lost),
        ("cluster.mvedsua.sessions-intact",
         "…and every long-lived session still works afterwards", 1.0, "%",
         exactly(), lambda r: (r.cluster.mvedsua_live_sessions_ok
                               / r.cluster.rolling_sessions_before)),
        ("cluster.mvedsua.worst-pause",
         "its per-node pause is fork-scale, not drain/restart-scale",
         "fork-scale", "ms", below(100), lambda r: max(
             record.leader_pause_ns
             for record in r.cluster.mvedsua.records) / 1e6)])


LEDGER: Tuple[Claim, ...] = tuple(
    _table1() + _table2() + _semantic() + _fig6() + _fig7() + _faults()
    + _ablations() + _cluster())
#: claim id -> the paper's value.
PAPER: Dict[str, Any] = {claim.id: claim.paper for claim in LEDGER}


class Measured(NamedTuple):
    claim: Claim
    value: Any
    holds: bool

    def cells(self) -> List[str]:
        """paper, band, measured and kind, as every table prints them."""
        show, band = self.claim.show, self.claim.band
        return [show(self.claim.paper),
                band.text.format(*map(show, band.bounds)), show(self.value),
                self.claim.kind]


def measure(results: Results = None,
            prefixes: Tuple[str, ...] = ("",)) -> List[Measured]:
    """Every claim whose id starts with one of ``prefixes``, measured.
    Each driver a claim reads runs at most once, and not at all for
    what ``results`` already holds."""
    results = results or Results()
    return [Measured(claim, value, claim.band.holds(value, claim.paper))
            for claim, value in ((claim, claim.measure(results))
                                 for claim in LEDGER
                                 if claim.id.startswith(prefixes))]


def configure(parser) -> None:
    parser.description = "Measure every paper claim against its band."


def run(args) -> int:
    from repro.bench.reporting import format_table
    rows = measure()
    print(format_table(
        ["id", "where", "paper", "band", "measured", "kind", ""],
        [[row.claim.id, row.claim.where, *row.cells(),
          "ok" if row.holds else "FAILS"] for row in rows]))
    failing = [claim.id for claim, _, holds in rows if not holds]
    calibrated = sum(claim.kind == CALIBRATED for claim, _, _ in rows)
    print(f"{len(rows)} claims ({calibrated} calibrated, "
          f"{len(rows) - calibrated} emergent): "
          + (f"{len(failing)} FAIL: {', '.join(failing)}" if failing
             else "all hold"))
    return 1 if failing else 0
