"""Traced companion scenarios for ``python -m repro trace``.

The headline experiments (``fig6``, ``fig7``, ``table1``, ``table2``,
``faults``) reproduce the paper's *numbers* with the fluid simulator,
which is batch-granular and therefore nearly silent at trace level.
Each experiment here gets a *semantic companion*: the same lifecycle —
same servers, same rules, same fault injections — driven through the
full semantic stack (virtual kernel, ring buffer, rewrite rules, DSU
engine), so its trace carries the per-syscall, per-ring-batch, and
per-divergence-check events forensics needs.

``run_trace_scenario(name)`` builds a :class:`~repro.obs.trace.Tracer`,
installs it for the duration of the run, and returns it loaded with
events, metrics, and (for ``faults``) forensics bundles.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.obs.trace import DEFAULT_LAST_K, Tracer
from repro.sites import observing


def _trace_fig6(tracer: Tracer, quick: bool) -> None:
    """Redis 2.0.0 -> 2.0.1 through the full Mvedsua lifecycle."""
    from repro.apps import deploy
    from repro.sim.engine import SECOND
    from repro.workloads.memtier import MemtierSpec

    ops = 8 if quick else 40
    stack = deploy("redis", "2.0.0", ring_capacity=1 << 10)
    mvedsua = stack.runtime
    client = stack.client()
    spec = MemtierSpec()

    def serve(start_ns: int, seed: int) -> None:
        now = start_ns
        for command in spec.commands(ops, protocol="redis", seed=seed):
            _, now = client.request(mvedsua, command, now)

    serve(SECOND, seed=1)
    stack.update("2.0.1", 100 * SECOND)
    serve(101 * SECOND, seed=2)
    mvedsua.promote(200 * SECOND)
    serve(201 * SECOND, seed=3)
    mvedsua.finalize(300 * SECOND)
    serve(301 * SECOND, seed=4)


def _trace_table1(tracer: Tracer, quick: bool) -> None:
    """One Vsftpd Table 1 update pair (2.0.4 -> 2.0.5, RETR reorder)."""
    from repro.apps import deploy
    from repro.sim.engine import SECOND
    from repro.workloads.ftpclient import FtpClient

    retrs = 1 if quick else 4
    stack = deploy("vsftpd", "2.0.4")
    stack.kernel.fs.write_file("/f.txt", b"trace payload")
    mvedsua = stack.runtime
    client = FtpClient(stack.kernel, stack.server.address)
    client.login(mvedsua)
    stack.update("2.0.5", SECOND)
    now = 2 * SECOND
    for _ in range(retrs):
        client.retr(mvedsua, "f.txt", now=now)
        now += SECOND
    mvedsua.promote(now)
    client.retr(mvedsua, "f.txt", now=now + SECOND)
    mvedsua.finalize(now + 2 * SECOND)


def _trace_table2(tracer: Tracer, quick: bool) -> None:
    """Redis steady state: single leader, then a plain Varan follower."""
    from repro.apps import deploy
    from repro.mve import VaranRuntime
    from repro.workloads.memtier import MemtierSpec

    ops = 8 if quick else 40
    stack = deploy("redis", "2.0.0", VaranRuntime,
                   ring_capacity=1 << 10, with_kitsune=False)
    runtime = stack.runtime
    client = stack.client()
    spec = MemtierSpec()
    now = 0
    for command in spec.commands(ops, protocol="redis", seed=5):
        _, now = client.request(runtime, command, now + 1)
    runtime.fork_follower(now)
    for command in spec.commands(ops, protocol="redis", seed=6):
        _, now = client.request(runtime, command, now + 1)
    runtime.drain_follower()


def _trace_fig7(tracer: Tracer, quick: bool) -> None:
    """KV store through a tiny (8-entry) ring: heavy back-pressure."""
    from repro.apps import deploy
    from repro.mve import VaranRuntime

    ops = 12 if quick else 80
    stack = deploy("kvstore", "1.0", VaranRuntime, ring_capacity=8)
    runtime = stack.runtime
    client = stack.client()
    runtime.fork_follower(0)
    now = 0
    for index in range(ops):
        _, now = client.request(runtime, b"PUT k%d v%d" % (index % 16, index),
                                now + 1)
    runtime.drain_follower()


def _trace_faults(tracer: Tracer, quick: bool) -> None:
    """Forced failures: an xform bug (divergence + forensics bundle) and
    a new-code crash (follower terminated, service survives)."""
    from repro.apps import deploy
    from repro.dsu.transform import TransformRegistry
    from repro.servers.kvstore import xform_drop_table
    from repro.sim.engine import SECOND

    # -- xform bug: the dropped table makes the follower's GET diverge.
    buggy = TransformRegistry()
    buggy.register("kvstore", "1.0", "2.0", xform_drop_table)
    stack = deploy("kvstore", "1.0", transforms=buggy)
    client = stack.client()
    client.command(stack.runtime, b"PUT balance 1000")
    stack.update("2.0", SECOND)
    client.command(stack.runtime, b"GET balance", now=2 * SECOND)
    client.command(stack.runtime, b"GET balance", now=3 * SECOND)

    # -- new-code crash: the E1 Redis HMGET bug kills the follower.
    stack = deploy("redis", "2.0.0")
    client = stack.client()
    client.command(stack.runtime, b"SET wrongtype value")
    stack.update("2.0.1-7fb16bac", SECOND)
    client.command(stack.runtime, b"HMGET wrongtype f", now=2 * SECOND)
    client.command(stack.runtime, b"GET wrongtype", now=3 * SECOND)


#: experiment name -> scenario driver.  Keys deliberately mirror the
#: ``python -m repro <experiment>`` names the trace is a companion to.
TRACE_SCENARIOS: Dict[str, Callable[[Tracer, bool], None]] = {
    "fig6": _trace_fig6,
    "fig7": _trace_fig7,
    "table1": _trace_table1,
    "table2": _trace_table2,
    "faults": _trace_faults,
}


def run_trace_scenario(name: str, *, quick: bool = False,
                       last_k: int = DEFAULT_LAST_K) -> Tracer:
    """Run one traced companion scenario; returns the loaded tracer."""
    try:
        scenario = TRACE_SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown trace scenario {name!r} "
                       f"(have: {', '.join(sorted(TRACE_SCENARIOS))})")
    tracer = Tracer(experiment=name, last_k=last_k)
    with observing(tracer=tracer):
        scenario(tracer, quick)
    return tracer
