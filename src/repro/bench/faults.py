"""§6.2 — fault-tolerance experiments.

Three fault classes, each run semantically through the full Mvedsua
stack, with the standalone-Kitsune contrast where the paper draws one:

* **E1, error in the new code** — Redis 2.0.0 (without revision
  7fb16bac) updated to 2.0.1 (with it); a bad HMGET crashes the updated
  version.  Kitsune: server down.  Mvedsua: follower terminated, old
  version answers, clients never notice.
* **E2, error in the state transformation** — the Memcached transformer
  that frees memory LibEvent still uses; crashes only once enough
  clients are connected.  Same contrast.
* **E3, timing error** — Memcached without the LibEvent reset callback
  spuriously diverges (and rolls back, harmlessly); with retry-on-
  failure every update eventually installs (paper: 500 ms waits, max 8
  retries, median 2).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List

from repro.apps import Stack, app, deploy
from repro.bench import claims
from repro.bench.reporting import format_table
from repro.chaos import ChaosInjector
from repro.chaos.plans import e1_new_code_plan, e2_transform_plan, \
    e3_timing_plan
from repro.core import Mvedsua, RetryPolicy, Stage
from repro.dsu import Kitsune
from repro.errors import ServerCrash
from repro.net import VirtualKernel
from repro.servers.memcached import MANY_CLIENTS_THRESHOLD
from repro.servers.native import NativeRuntime
from repro.sim.engine import MILLISECOND, SECOND
from repro.sim.rng import RngStreams
from repro.sites import observing
from repro.syscalls.costs import PROFILES


@dataclass
class FaultOutcome:
    """Result of one fault experiment."""

    experiment: str
    system: str               # "kitsune" or "mvedsua"
    fault_triggered: bool
    service_survived: bool
    rolled_back: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# E1: error in the new code (Redis HMGET crash, revision 7fb16bac)
# ---------------------------------------------------------------------------


def run_e1() -> List[FaultOutcome]:
    outcomes = []

    # Kitsune alone: the update installs, then the bad HMGET kills it.
    stack = deploy("redis", "2.0.0", NativeRuntime, with_kitsune=True)
    runtime, client = stack.runtime, stack.client()
    client.command(runtime, b"SET wrongtype value")
    # The operator requests a clean 2.0.1; the fault plan swaps in the
    # build with revision 7fb16bac's HMGET bug.
    with observing(chaos=ChaosInjector(e1_new_code_plan())):
        runtime.apply_update(Kitsune(stack.app.transforms),
                             stack.app.version("2.0.1"), SECOND)
    crashed = False
    try:
        client.command(runtime, b"HMGET wrongtype f", now=2 * SECOND)
    except ServerCrash:
        crashed = True
    survived = True
    try:
        client.command(runtime, b"GET wrongtype", now=3 * SECOND)
    except ServerCrash:
        survived = False
    outcomes.append(FaultOutcome("E1 new-code error", "kitsune",
                                 crashed, survived, False,
                                 "server crashed and stayed down"))

    # Mvedsua: the follower crashes; service continues on the leader.
    stack = deploy("redis", "2.0.0")
    mvedsua, client = stack.runtime, stack.client()
    client.command(mvedsua, b"SET wrongtype value")
    with observing(chaos=ChaosInjector(e1_new_code_plan())):
        stack.update("2.0.1", SECOND)
    reply = client.command(mvedsua, b"HMGET wrongtype f", now=2 * SECOND)
    follow_up = client.command(mvedsua, b"GET wrongtype", now=3 * SECOND)
    outcomes.append(FaultOutcome(
        "E1 new-code error", "mvedsua",
        fault_triggered=mvedsua.stage is Stage.SINGLE_LEADER,
        service_survived=(b"wrong kind" in reply
                          and follow_up == b"$5\r\nvalue\r\n"),
        rolled_back=bool(mvedsua.last_outcome()
                         and mvedsua.last_outcome().rolled_back()),
        detail="follower crashed; rolled back to 2.0.0; clients served"))
    return outcomes


# ---------------------------------------------------------------------------
# E2: error in the state transformation (Memcached/LibEvent)
# ---------------------------------------------------------------------------


def _memcached_with_clients(runtime, client_count: int, **runtime_kwargs):
    stack = deploy("memcached", "1.2.2", runtime, **runtime_kwargs)
    clients = [stack.client(f"c{index}") for index in range(client_count)]
    for index, client in enumerate(clients):
        client.command(stack.runtime, b"set k%d 0 0 1\r\nv" % index)
    return stack, clients


def run_e2(client_count: int = MANY_CLIENTS_THRESHOLD + 2
           ) -> List[FaultOutcome]:
    outcomes = []

    # Kitsune alone: the fault plan swaps in the transformer that frees
    # LibEvent state — a time bomb armed by enough connected clients.
    stack, clients = _memcached_with_clients(NativeRuntime, client_count,
                                             with_kitsune=True)
    runtime = stack.runtime
    with observing(chaos=ChaosInjector(e2_transform_plan())):
        runtime.apply_update(Kitsune(stack.app.transforms),
                             stack.app.version("1.2.3"), SECOND)
    crashed = False
    try:
        clients[0].command(runtime, b"get k0", now=2 * SECOND)
    except ServerCrash:
        crashed = True
    outcomes.append(FaultOutcome("E2 state-transform error", "kitsune",
                                 crashed, not crashed, False,
                                 f"{client_count} clients connected"))

    # Mvedsua: the crash happens on the follower during catch-up.
    stack, clients = _memcached_with_clients(Mvedsua, client_count)
    mvedsua = stack.runtime
    with observing(chaos=ChaosInjector(e2_transform_plan())):
        stack.update("1.2.3", SECOND)
    reply = clients[0].command(mvedsua, b"get k0", now=2 * SECOND)
    outcomes.append(FaultOutcome(
        "E2 state-transform error", "mvedsua",
        fault_triggered=mvedsua.stage is Stage.SINGLE_LEADER,
        service_survived=reply == b"VALUE k0 0 1\r\nv\r\nEND\r\n",
        rolled_back=bool(mvedsua.last_outcome()
                         and mvedsua.last_outcome().rolled_back()),
        detail="follower crash tolerated; clients unaffected"))
    return outcomes


# ---------------------------------------------------------------------------
# E3: timing error (LibEvent state; retry-until-installed)
# ---------------------------------------------------------------------------


@dataclass
class RetryTrial:
    """One retry-until-installed trial."""

    retries: int
    installed: bool


@dataclass
class E3Result:
    divergence_without_reset: FaultOutcome = None
    trials: List[RetryTrial] = field(default_factory=list)

    @property
    def max_retries(self) -> int:
        return max(trial.retries for trial in self.trials)

    @property
    def median_retries(self) -> float:
        return statistics.median(trial.retries for trial in self.trials)


def run_e3(trials: int = 31, seed: int = 1,
           failure_probability: float = 0.75) -> E3Result:
    """The §6.2 timing-error experiment.

    Part 1: without the LibEvent reset callback, the update spuriously
    diverges and is rolled back (harmlessly).

    Part 2: timing failures are nondeterministic — each attempt the
    update signal races differently against in-flight locks — so retries
    with a 500 ms wait eventually succeed.  ``failure_probability`` is
    the per-attempt chance the signal lands while a worker holds a lock,
    calibrated so the retry distribution matches the paper's (median 2,
    max 8 over the observed runs).
    """
    result = E3Result()

    # -- part 1: the divergence itself ------------------------------------
    # The one hand-built stack: deploy() forwards keywords to the
    # runtime, and this experiment needs a server built *without* the
    # paper's LibEvent adaptation.
    memcached = app("memcached")
    kernel = VirtualKernel()
    server = memcached.server("1.2.2", libevent_reset_on_abort=False)
    server.attach(kernel)
    stack = Stack(kernel, server,
                  Mvedsua(kernel, server, PROFILES[server.profile_name],
                          transforms=memcached.transforms), memcached)
    mvedsua = stack.runtime
    alice, bob = stack.client("alice"), stack.client("bob")
    alice.command(mvedsua, b"get warm")  # cursor becomes odd
    stack.update("1.2.3", SECOND)
    alice.send(b"set p 0 0 1\r\n1\r\n")
    bob.send(b"set q 0 0 1\r\n2\r\n")
    mvedsua.pump(2 * SECOND)
    result.divergence_without_reset = FaultOutcome(
        "E3 timing error", "mvedsua (no reset callback)",
        fault_triggered=mvedsua.stage is Stage.SINGLE_LEADER,
        service_survived=(alice.recv() == b"STORED\r\n"
                          and bob.recv() == b"STORED\r\n"),
        rolled_back=bool(mvedsua.last_outcome()
                         and mvedsua.last_outcome().rolled_back()),
        detail="LibEvent dispatch memory caused a spurious divergence")

    # -- part 2: retry until installed -------------------------------------
    streams = RngStreams(seed)
    policy = RetryPolicy(retry_wait_ns=500 * MILLISECOND, max_attempts=50)
    for trial_index in range(trials):
        rng = streams.reseed("e3-trial", trial_index)
        mvedsua = deploy(memcached, "1.2.2").runtime
        # The timing fault races every quiesce attempt: with
        # failure_probability a worker is caught holding a lock, so the
        # attempt fails and the policy retries after its 500 ms wait.
        plan = e3_timing_plan(rng, failure_probability)
        with observing(chaos=ChaosInjector(plan)):
            attempts = mvedsua.request_update_with_retry(
                memcached.version("1.2.3"), SECOND, policy=policy)
        result.trials.append(RetryTrial(retries=len(attempts) - 1,
                                        installed=attempts[-1].ok))
    return result


def render(e1: List[FaultOutcome], e2: List[FaultOutcome],
           e3: E3Result) -> str:
    rows = []
    for outcome in e1 + e2 + [e3.divergence_without_reset]:
        rows.append([outcome.experiment, outcome.system,
                     "yes" if outcome.fault_triggered else "no",
                     "yes" if outcome.service_survived else "NO",
                     "yes" if outcome.rolled_back else "no",
                     outcome.detail])
    table = format_table(
        ["experiment", "system", "fault hit", "service ok",
         "rolled back", "detail"], rows)
    installed = sum(1 for trial in e3.trials if trial.installed)
    retry_line = (
        f"E3 retry-until-installed: {installed}/{len(e3.trials)} "
        f"installed; retries max={e3.max_retries} "
        f"median={e3.median_retries:g} "
        f"(paper: max {claims.PAPER['e3.max-retries']}, "
        f"median {claims.PAPER['e3.median-retries']}, 500 ms waits)")
    return table + "\n" + retry_line


def main() -> None:
    print("Section 6.2: fault tolerance experiments")
    print(render(run_e1(), run_e2(), run_e3()))
