"""Witness-to-scenario compilation and dynamic validation.

A divergence the prover finds statically is only a *claim* until the
real engine reproduces it.  This module lowers each shortest-path
witness (a sequence of client request lines with iteration-boundary
markers) into an executable MVE scenario: a fresh
:class:`~repro.net.kernel.VirtualKernel`, the app's real server on the
old version, a full :class:`~repro.core.mvedsua.Mvedsua` update
lifecycle with the pair's real rewrite rules, and a (fault-free) chaos
plan so the replay runs under the same instrumentation as campaign
cells.  The scenario drives the witness commands through a
:class:`~repro.workloads.client.VirtualClient` and then asks the
runtime whether the follower actually diverged:

* **CONFIRMED** — ``runtime.last_divergence`` is set; the
  :class:`~repro.obs.forensics.ForensicsBundle` is attached to the
  finding and the static severity stands;
* **SPURIOUS** — the replay stayed clean; the abstraction was too
  coarse (typically: the vocabulary model says a version "accepts" a
  command its handler actually rejects), so the finding is downgraded
  to WARNING with a refinement hint;
* **ERROR** — the scenario could not run (missing transformer, crash);
  reported verbatim, severity untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.state_space import Step
from repro.apps import AppConfig, deploy
from repro.chaos.injector import ChaosInjector
from repro.chaos.plans import witness_plan
from repro.errors import (KernelError, NoUpdatePath, ServerCrash,
                          SimulationError)
from repro.mve.dsl.rules import Direction
from repro.sites import observing

#: Virtual-time script of the scenario (nanoseconds).
SECOND = 1_000_000_000
UPDATE_AT = 1 * SECOND
PROMOTE_AT = 2 * SECOND
FIRST_COMMAND_AT = 3 * SECOND
COMMAND_SPACING = 200_000_000


@dataclass(frozen=True)
class Witness:
    """One executable counterexample extracted from the state space."""

    app: str
    old: str
    new: str
    stage: str  # Direction value
    code: str
    cls: str
    kind: str
    steps: Tuple[Step, ...]
    detail: str

    def command_lines(self) -> List[str]:
        return [step.rep.decode("latin-1").rstrip("\r\n")
                for step in self.steps]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "class": self.cls,
            "kind": self.kind,
            "detail": self.detail,
            "steps": [{"send": step.rep.decode("latin-1"),
                       "flush": step.flush} for step in self.steps],
        }


@dataclass
class ReplayResult:
    """What happened when the compiled scenario ran."""

    status: str  # "confirmed" | "spurious" | "error"
    detail: str = ""
    replies: List[Optional[str]] = field(default_factory=list)
    forensics: Optional[Dict[str, Any]] = None


@dataclass
class WitnessScenario:
    """A witness lowered to an executable scenario + chaos plan."""

    witness: Witness
    config: AppConfig
    plan: Any = None

    def __post_init__(self) -> None:
        if self.plan is None:
            self.plan = witness_plan(
                f"{self.witness.app}:{self.witness.code}:{self.witness.cls}")

    def run(self) -> ReplayResult:
        with observing(chaos=ChaosInjector(self.plan)):
            return self._run()

    def _run(self) -> ReplayResult:
        witness = self.witness
        try:
            stack = deploy(self.config, witness.old, ring_capacity=64)
        except NoUpdatePath as exc:
            return ReplayResult("error", f"version lookup failed: {exc}")
        mvedsua = stack.runtime
        try:
            attempt = stack.update(witness.new, UPDATE_AT)
        except (SimulationError, ServerCrash) as exc:
            return ReplayResult("error", f"update failed: {exc}")
        if not attempt.ok:
            return ReplayResult("error",
                                f"update not installed: {attempt.reason}")
        if witness.stage == Direction.UPDATED_LEADER.value:
            try:
                mvedsua.promote(PROMOTE_AT)
            except ServerCrash as exc:
                return ReplayResult("error", f"promotion crashed: {exc}")
        client = stack.client("witness")
        replies: List[Optional[str]] = []
        now = FIRST_COMMAND_AT
        try:
            for step in witness.steps:
                line = step.rep if step.rep.endswith(b"\r\n") \
                    else step.rep + b"\r\n"
                client.send(line)
                if step.flush:
                    mvedsua.pump(now)
                    data = client.recv()
                    replies.append(data.decode("latin-1") if data else None)
                    now += COMMAND_SPACING
            mvedsua.pump(now)
        except ServerCrash as exc:
            return ReplayResult("error", f"service crashed: {exc}",
                                replies=replies)
        except KernelError as exc:
            return ReplayResult("error", f"kernel error: {exc}",
                                replies=replies)
        runtime = mvedsua.runtime
        if runtime.last_divergence is not None:
            forensics = (runtime.last_forensics.as_dict()
                         if runtime.last_forensics is not None else None)
            return ReplayResult("confirmed", str(runtime.last_divergence),
                                replies=replies, forensics=forensics)
        return ReplayResult(
            "spurious",
            "replay stayed clean: both versions answered the witness "
            "identically", replies=replies)


def compile_witness(config: AppConfig, witness: Witness) -> WitnessScenario:
    """Lower ``witness`` into an executable scenario."""
    return WitnessScenario(witness=witness, config=config)


def replay_witness(config: AppConfig, witness: Witness) -> ReplayResult:
    """Compile and run ``witness``; never raises."""
    try:
        return compile_witness(config, witness).run()
    except Exception as exc:  # defensive: replay must not kill the lint
        return ReplayResult("error", f"replay harness failed: {exc!r}")
