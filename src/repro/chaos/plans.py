"""Named fault plans for the paper's §6.2 experiments.

E1/E2/E3 from ``repro.bench.faults`` are expressed here as declarative
:class:`~repro.chaos.plan.FaultPlan` values and injected through the
same hooks the campaign grid uses — the experiments *are* chaos cells
with historical names:

* **E1** (new-code error): the operator ships a buggy build — a
  ``dsu.update``/``buggy-version`` fault swapping in Redis 2.0.1 with
  the real ``HMGET`` crash (revision 7fb16bac).
* **E2** (state-transformer error): a ``dsu.transform``/``replace``
  fault installs the transformer that frees LibEvent state the
  many-clients path still needs (Memcached 1.2.2 → 1.2.3).
* **E3** (timing error): a ``dsu.quiesce``/``race`` fault re-samples
  thread states on *every* quiesce attempt (unlimited trigger count), so
  retry-until-installed statistics emerge from the fault plan alone.

These plans are also registered in the mvelint catalog, where MVE601
checks their site/kind vocabulary stays in step with the hooks.
"""

from __future__ import annotations

import random
from typing import Any

from repro.chaos.plan import Fault, FaultPlan, on_call, when


def _buggy_redis(version: Any) -> Any:
    from repro.apps import app
    return app("redis").version(f"{version.name}-7fb16bac")


def e1_new_code_plan() -> FaultPlan:
    """E1: the shipped 2.0.1 build carries the HMGET type-confusion bug."""
    return FaultPlan("e1-new-code", (
        Fault("dsu.update", "buggy-version", on_call(1),
              param={"factory": _buggy_redis}),
    ))


def e2_transform_plan() -> FaultPlan:
    """E2: the state transformer frees LibEvent state still in use."""
    from repro.servers.memcached import xform_free_libevent
    return FaultPlan("e2-transform", (
        Fault("dsu.transform", "replace", on_call(1),
              param={"transformer": xform_free_libevent}),
    ))


def witness_plan(name: str) -> FaultPlan:
    """A fault-free plan for prover witness replays.

    The MVE8xx prover replays each divergence witness as a chaos cell so
    it runs under the exact instrumentation (injector hooks, invariant
    checks) the campaign grid uses — but with zero faults armed: the
    witness itself must cause the divergence, not an injected error.
    """
    return FaultPlan(f"witness:{name}", ())


def e3_timing_plan(rng: random.Random,
                   probability: float = 0.75) -> FaultPlan:
    """E3: every quiesce attempt races the update signal against live
    locks; with ``probability`` a worker is caught holding one."""
    return FaultPlan("e3-timing", (
        Fault("dsu.quiesce", "race",
              when(lambda ctx: True, count=-1, label="every quiesce"),
              param={"rng": rng, "probability": probability}),
    ))


NAMED_PLANS = {
    "e1-new-code": e1_new_code_plan,
    "e2-transform": e2_transform_plan,
}
