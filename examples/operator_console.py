"""The operator's view: deployment status, live metrics, update history.

The paper leaves promotion to operators ("if the new version shows no
problems after a warmup period, operators can make it permanent").  This
example shows that workflow end to end on the running-example store,
with the observability layer installed the way a production console
would use it:

1. a buggy update attempt — the operator reads the automatic rollback
   off the deployment's status and history *and* the divergence
   forensics bundle the monitor captured (which leader record the
   follower disagreed on, what it issued instead, the last ring
   records);
2. the fixed update, validated under a warm-up loop of traffic, then
   promoted and finalized by hand, with the live metrics stream sampled
   every few ticks.

Run with:  python examples/operator_console.py
"""

from repro.apps import deploy
from repro.core import Mvedsua
from repro.dsu.transform import TransformRegistry
from repro.obs import Tracer
from repro.obs.forensics import summary
from repro.servers.kvstore import kv_transforms, xform_drop_table
from repro.sim.engine import SECOND, ns_to_seconds
from repro.sites import observing
from repro.workloads import VirtualClient


def metrics_line(tracer: Tracer) -> str:
    """One console line from the live metrics (folded from the log)."""
    snapshot = tracer.metrics()

    def value(name: str) -> int:
        entry = snapshot.get(name, {})
        return entry.get("value", 0)

    occupancy = snapshot.get("ring.occupancy", {})
    return (f"syscalls={value('syscalls.total')} "
            f"ring.occupancy={occupancy.get('value', 0)} "
            f"(peak {occupancy.get('max', 0)}) "
            f"ring.stalls={value('ring.stalls')} "
            f"divergence.checks={value('divergence.checks')} "
            f"rules.hits={value('rules.dispatch_hits')}")


def status(mvedsua: Mvedsua) -> str:
    """The deployment's status, read off the runtime."""
    runtime = mvedsua.runtime
    follower = runtime.follower
    return "\n".join([
        f"stage:           {mvedsua.stage.value}",
        f"serving:         {runtime.leader.version_name}",
        f"validating:      {follower.version_name if follower else '-'}",
        f"last divergence: {runtime.last_divergence or '-'}",
    ])


def history(mvedsua: Mvedsua) -> str:
    """Every closed update attempt's Figure 2 timeline."""
    lines = []
    for index, timeline in enumerate(mvedsua.history):
        outcome = "rolled back" if timeline.rolled_back() else "finalized"
        lines.append(f"update #{index}: {outcome} "
                     f"(ended by {timeline.ended_by})")
        for label, value in (
                ("t1 forked", timeline.t1_forked),
                ("t2 updated", timeline.t2_updated),
                ("t3 caught up", timeline.t3_caught_up),
                ("t4 demote requested", timeline.t4_demote),
                ("t5 promoted", timeline.t5_promoted),
                ("t6 finalized", timeline.t6_finalized),
                ("rolled back", timeline.rolled_back_at)):
            if value is not None:
                lines.append(f"  {label:20s} {ns_to_seconds(value):10.3f}s")
    return "\n".join(lines) or "no completed update attempts"


def main() -> None:
    buggy = TransformRegistry()
    buggy.register("kvstore", "1.0", "2.0", xform_drop_table)
    stack = deploy("kvstore", "1.0", transforms=buggy)
    client = stack.client()
    # The console installs a tracer over the running deployment: every
    # kernel, gateway and runtime starts reporting, no restart needed.
    tracer = Tracer(experiment="operator-console")
    with observing(tracer=tracer):
        operate(stack, client, tracer)


def operate(stack, client: VirtualClient, tracer: Tracer) -> None:
    mvedsua = stack.runtime
    client.command(mvedsua, b"PUT balance 1000")
    print("== status before the update ==")
    print(status(mvedsua))
    print("metrics:", metrics_line(tracer))

    # Attempt 1: the transformer silently drops the table; the first
    # GET during catch-up diverges and the update rolls back.
    stack.update("2.0", SECOND)
    client.command(mvedsua, b"GET balance", now=2 * SECOND)
    print("\n== status after the rollback ==")
    print(status(mvedsua))
    if mvedsua.runtime.last_divergence is not None:
        print("\n== divergence forensics ==")
        print(summary(mvedsua.runtime.last_divergence.forensics))

    # Attempt 2: transformer fixed.  Traffic flows through a warm-up
    # while the new version validates; then the operator promotes it
    # and, after a confirmation window, finalizes.
    mvedsua.kitsune.transforms = kv_transforms()
    stack.update("2.0", 10 * SECOND)
    for tick in range(25):
        now = (11 + tick) * SECOND
        client.command(mvedsua, b"PUT key%d v" % tick, now=now)
        if tick == 8:
            mvedsua.promote(now)
            print(f"\n[operator @ {11 + tick}s] promoted")
        elif tick == 16:
            mvedsua.finalize(now)
            print(f"\n[operator @ {11 + tick}s] finalized")
        if tick % 8 == 0:
            print(f"[metrics @ {11 + tick}s] {metrics_line(tracer)}")

    print("\n== final status ==")
    print(status(mvedsua))
    print("\n== final metrics ==")
    for name, entry in sorted(tracer.metrics().items()):
        rendered = " ".join(f"{key}={value}"
                            for key, value in sorted(entry.items())
                            if key != "type")
        print(f"  {name:24s} {rendered}")
    print(f"  trace events collected: {tracer.event_count}")
    print("\n== update history ==")
    print(history(mvedsua))
    print("\nGET balance ->",
          client.command(mvedsua, b"GET balance", now=60 * SECOND))


if __name__ == "__main__":
    main()
