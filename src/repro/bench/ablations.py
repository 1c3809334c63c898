"""Ablations and comparator experiments beyond the paper's main tables.

Three studies the paper makes in prose (§2.2, §7, Table 2's bottom
rows), regenerated quantitatively:

* **Upgrade strategies** — stop/restart, checkpoint-restart, standalone
  Kitsune, and Mvedsua, on the same stateful update: who keeps the
  state, who pauses, for how long.
* **TTST detection matrix** — which update-error classes TTST's
  round-trip validation catches vs which Mvedsua's live validation
  catches (§7's comparison).
* **Lock-step comparators** — MUC/Mx/Imago overhead ranges next to
  Mvedsua's two modes (Table 2's bottom rows) plus the §7 capability
  matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps import app, deploy
from repro.baselines.lockstep import LOCKSTEP_SYSTEMS, MVEDSUA_CAPABILITIES
from repro.baselines.restart import (
    CheckpointRestart,
    IncompatibleCheckpoint,
    StopRestart,
)
from repro.baselines.ttst import TTSTValidator
from repro.bench.reporting import format_ms, format_percent, format_table
from repro.core import Mvedsua, Stage
from repro.dsu import Kitsune
from repro.errors import ReproError
from repro.servers.kvstore import (
    KVStoreV2,
    xform_1_to_2,
    xform_2_to_1,
    xform_corrupt_values,
    xform_drop_table,
    xform_uncorrupt_values,
    xform_uninitialised_backward,
    xform_uninitialised_type,
)
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES, ExecutionMode

STORE_SIZE = 200_000


# ---------------------------------------------------------------------------
# Upgrade-strategy comparison
# ---------------------------------------------------------------------------


@dataclass
class StrategyOutcome:
    strategy: str
    pause_ns: int
    state_preserved: bool
    upgrade_succeeded: bool
    detail: str = ""


def _deployment(runtime, store, **runtime_kwargs):
    """A kvstore 1.0 under ``runtime`` holding its own copy of ``store``,
    one client attached."""
    stack = deploy("kvstore", "1.0", runtime, **runtime_kwargs)
    stack.server.heap["table"].update(store)
    client = stack.client()
    client.command(stack.runtime, b"PUT balance 1000")
    return stack, client


def _native_deployment(store):
    stack, client = _deployment(NativeRuntime, store, with_kitsune=True)
    return stack.runtime, client


def _check_state(client, runtime, now) -> bool:
    try:
        return client.command(runtime, b"GET balance",
                              now=now) == b"1000\r\n"
    except ReproError:
        return False  # a crashed or diverged server has lost the state


def run_upgrade_strategies() -> List[StrategyOutcome]:
    outcomes = []
    # Built once: the four deployments copy it, sharing the key strings.
    store = {f"key{i}": "value" for i in range(STORE_SIZE)}

    # Stop/restart: fast but forgets everything.
    kvstore = app("kvstore")
    runtime, client = _native_deployment(store)
    report = StopRestart().perform(runtime, kvstore.version("2.0"), SECOND)
    outcomes.append(StrategyOutcome(
        "stop-restart", report.pause_ns,
        state_preserved=_check_state(client, runtime, 2 * SECOND),
        upgrade_succeeded=True, detail=report.detail))

    # Checkpoint-restart: fails outright — the state format changed.
    runtime, client = _native_deployment(store)
    try:
        CheckpointRestart().perform(runtime, kvstore.version("2.0"), SECOND)
        succeeded, detail = True, ""
    except IncompatibleCheckpoint as exc:
        succeeded, detail = False, str(exc)
    pause = runtime.cpu.busy_until - SECOND
    outcomes.append(StrategyOutcome(
        "checkpoint-restart", pause,
        state_preserved=_check_state(client, runtime, 60 * SECOND),
        upgrade_succeeded=succeeded, detail=detail[:60]))

    # Standalone Kitsune: works, but pauses for the whole transform.
    runtime, client = _native_deployment(store)
    result = runtime.apply_update(Kitsune(kvstore.transforms),
                                  kvstore.version("2.0"), SECOND)
    outcomes.append(StrategyOutcome(
        "kitsune", result.pause_ns,
        state_preserved=_check_state(client, runtime, 60 * SECOND),
        upgrade_succeeded=result.ok,
        detail=f"{result.entries_transformed:,} entries transformed"))

    # Mvedsua: works, and the leader only pays fork + quiesce.
    stack, client = _deployment(Mvedsua, store)
    mvedsua = stack.runtime
    leader_cpu = mvedsua.runtime.leader.cpu
    before = max(SECOND, leader_cpu.busy_until)
    attempt = stack.update("2.0", SECOND)
    pause = leader_cpu.busy_until - before
    mvedsua.promote(10 * SECOND)
    mvedsua.finalize(11 * SECOND)
    outcomes.append(StrategyOutcome(
        "mvedsua", pause,
        state_preserved=_check_state(client, mvedsua, 60 * SECOND),
        upgrade_succeeded=attempt.ok and mvedsua.current_version == "2.0",
        detail=f"update ran {attempt.xform_ns / 1e6:.0f} ms "
               f"on the follower"))
    return outcomes


# ---------------------------------------------------------------------------
# TTST detection matrix
# ---------------------------------------------------------------------------


@dataclass
class DetectionRow:
    fault: str
    ttst_catches: bool
    ttst_detail: str
    mvedsua_catches: bool
    mvedsua_detail: str


def _mvedsua_catches(forward, new_version=None) -> Optional[str]:
    """Run the update under Mvedsua and return how it was caught."""
    from repro.dsu.transform import TransformRegistry
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", forward)
    stack = deploy("kvstore", "1.0", transforms=registry)
    mvedsua, client = stack.runtime, stack.client()
    client.command(mvedsua, b"PUT balance 1000")
    attempt = mvedsua.request_update(
        new_version or stack.app.version("2.0"), SECOND,
        rules=stack.app.rules_for("1.0", "2.0"))
    if not attempt.ok:
        return f"update aborted: {attempt.reason}"
    client.command(mvedsua, b"GET balance", now=2 * SECOND)
    if mvedsua.stage is Stage.SINGLE_LEADER:
        events = mvedsua.runtime.event_kinds()
        if "divergence" in events:
            return "divergence during catch-up"
        if "follower-crash" in events:
            return "follower crash during catch-up"
        return "rolled back"
    return None


def run_ttst_matrix() -> List[DetectionRow]:
    heap = {"table": {"balance": "1000", "user": "alice"}}
    rows = []

    # 1. Dropped table: breaks the round trip AND live behaviour.
    report = TTSTValidator(xform_drop_table, xform_2_to_1).validate(heap)
    caught = _mvedsua_catches(xform_drop_table)
    rows.append(DetectionRow(
        "transformer drops the table", not report.ok, report.detail,
        caught is not None, caught or "-"))

    # 2. Uninitialised field with a masking backward transform: the
    # round trip is clean (TTST accepts) but the deployed state crashes.
    report = TTSTValidator(xform_uninitialised_type,
                           xform_uninitialised_backward).validate(heap)
    caught = _mvedsua_catches(xform_uninitialised_type)
    rows.append(DetectionRow(
        "uninitialised field (clean round trip)", not report.ok,
        report.detail or "accepted", caught is not None, caught or "-"))

    # 3. Consistently-wrong forward+backward pair (§7's explicit case).
    report = TTSTValidator(xform_corrupt_values,
                           xform_uncorrupt_values).validate(heap)
    caught = _mvedsua_catches(xform_corrupt_values)
    rows.append(DetectionRow(
        "reversibly-wrong transform pair", not report.ok,
        report.detail or "accepted", caught is not None, caught or "-"))

    # 4. Bug in the new code (not a transform problem at all).
    class BuggyV2(KVStoreV2):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"GET balance"):
                from repro.errors import ServerCrash
                raise ServerCrash("new-code bug")
            return super().handle(heap, request, session, io)

    report = TTSTValidator(xform_1_to_2, xform_2_to_1).validate(heap)
    caught = _mvedsua_catches(xform_1_to_2, new_version=BuggyV2())
    rows.append(DetectionRow(
        "bug in the new code", not report.ok,
        report.detail or "accepted (out of scope)",
        caught is not None, caught or "-"))

    # 5. Correct update: neither system may cry wolf.
    report = TTSTValidator(xform_1_to_2, xform_2_to_1).validate(heap)
    caught = _mvedsua_catches(xform_1_to_2)
    rows.append(DetectionRow(
        "correct update (control)", not report.ok,
        report.detail or "accepted", caught is not None, caught or "-"))
    return rows


# ---------------------------------------------------------------------------
# Lock-step comparators (Table 2 bottom rows + §7 capabilities)
# ---------------------------------------------------------------------------


@dataclass
class ComparatorRow:
    system: str
    redis_overhead: str
    memcached_overhead: str
    capabilities: Dict[str, bool]


def run_comparators() -> List[ComparatorRow]:
    rows = []
    for system in LOCKSTEP_SYSTEMS.values():
        redis_lo, redis_hi = system.overhead_range(PROFILES["redis"])
        mc_lo, mc_hi = system.overhead_range(PROFILES["memcached"])
        rows.append(ComparatorRow(
            system.name,
            f"{redis_lo:.0%}-{redis_hi:.0%}",
            f"{mc_lo:.0%}-{mc_hi:.0%}",
            {
                "masks pause": system.masks_update_pause,
                "in-update errors": system.detects_in_update_errors,
                "post-update errors": system.detects_post_update_errors,
                "state preserved": system.preserves_state_on_failure,
                "repr. changes": system.supports_representation_changes,
            }))
    # Mvedsua's own rows, from the calibrated model.
    for mode, label in ((ExecutionMode.MVEDSUA_SINGLE, "Mvedsua-1"),
                        (ExecutionMode.MVEDSUA_LEADER, "Mvedsua-2")):
        redis = 1 - (PROFILES["redis"].op_cost_ns(ExecutionMode.NATIVE)
                     / PROFILES["redis"].op_cost_ns(mode))
        memcached = 1 - (
            PROFILES["memcached"].op_cost_ns(ExecutionMode.NATIVE)
            / PROFILES["memcached"].op_cost_ns(mode))
        rows.append(ComparatorRow(
            label, format_percent(redis), format_percent(memcached),
            {"masks pause": MVEDSUA_CAPABILITIES["masks_update_pause"],
             "in-update errors":
                 MVEDSUA_CAPABILITIES["detects_in_update_errors"],
             "post-update errors":
                 MVEDSUA_CAPABILITIES["detects_post_update_errors"],
             "state preserved":
                 MVEDSUA_CAPABILITIES["preserves_state_on_failure"],
             "repr. changes":
                 MVEDSUA_CAPABILITIES["supports_representation_changes"]}))
    return rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_strategies(outcomes: List[StrategyOutcome]) -> str:
    return format_table(
        ["strategy", "pause", "state preserved", "upgrade ok", "detail"],
        [[o.strategy, format_ms(o.pause_ns),
          "yes" if o.state_preserved else "NO",
          "yes" if o.upgrade_succeeded else "NO", o.detail]
         for o in outcomes])


def render_ttst(rows: List[DetectionRow]) -> str:
    return format_table(
        ["fault class", "TTST", "detail", "Mvedsua", "detail "],
        [[r.fault,
          "caught" if r.ttst_catches else "missed",
          r.ttst_detail,
          "caught" if r.mvedsua_catches else "missed",
          r.mvedsua_detail] for r in rows])


def render_comparators(rows: List[ComparatorRow]) -> str:
    caps = list(rows[0].capabilities)
    return format_table(
        ["system", "redis ovh", "memcached ovh"] + caps,
        [[r.system, r.redis_overhead, r.memcached_overhead]
         + ["yes" if r.capabilities[c] else "no" for c in caps]
         for r in rows])


def main() -> None:
    print("Ablation A: upgrade strategies on a 200k-entry stateful update")
    print(render_strategies(run_upgrade_strategies()))
    print()
    print("Ablation B: TTST round-trip validation vs Mvedsua live "
          "validation (paper §7)")
    print(render_ttst(run_ttst_matrix()))
    print()
    print("Ablation C: lock-step comparators (Table 2 bottom rows + §7)")
    print(render_comparators(run_comparators()))
