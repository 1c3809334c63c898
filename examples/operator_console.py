"""The operator's view: console status, live metrics, and post-mortems.

The paper leaves promotion to operators ("if the new version shows no
problems after a warmup period, operators can make it permanent").  This
example shows that workflow end to end on the running-example store,
with the observability layer installed the way a production console
would use it:

1. a buggy update attempt — the operator reads the automatic rollback's
   post-mortem *and* the divergence forensics bundle the monitor
   captured (which leader record the follower disagreed on, what it
   issued instead, the last ring records);
2. the fixed update driven by the AutoPilot policy (promote after a
   clean warmup, finalize after a confirmation window) while traffic
   flows, with the live metrics stream sampled every few ticks.

Run with:  python examples/operator_console.py
"""

from repro.core import AutoPilot, Mvedsua, OperatorConsole
from repro.core.report import render_history
from repro.dsu.transform import TransformRegistry
from repro.net import VirtualKernel
from repro.obs import Tracer
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    kv_transforms,
    xform_drop_table,
)
from repro.sim.engine import SECOND
from repro.sites import observing
from repro.syscalls.costs import PROFILES
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


def main() -> None:
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    buggy = TransformRegistry()
    buggy.register("kvstore", "1.0", "2.0", xform_drop_table)
    mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"],
                      transforms=buggy)
    client = VirtualClient(kernel, server.address)
    # The console installs a tracer over the running deployment: every
    # kernel, gateway and runtime starts reporting, no restart needed.
    tracer = Tracer(experiment="operator-console")
    with observing(tracer=tracer):
        operate(mvedsua, client, tracer)


def operate(mvedsua: Mvedsua, client: VirtualClient,
            tracer: Tracer) -> None:
    console = OperatorConsole(mvedsua)
    client.command(mvedsua, b"PUT balance 1000")
    print("== status before the update ==")
    print(console.render_status())
    print("metrics:", metrics_line(tracer))

    # Attempt 1: the transformer silently drops the table; the first
    # GET during catch-up diverges and the update rolls back.
    mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
    client.command(mvedsua, b"GET balance", now=2 * SECOND)
    print("\n== status after the rollback ==")
    print(console.render_status())
    if mvedsua.runtime.last_forensics is not None:
        print("\n== divergence forensics ==")
        print(mvedsua.runtime.last_forensics.summary())

    # Attempt 2: transformer fixed; let the auto-pilot drive.
    mvedsua.kitsune.transforms = kv_transforms()
    pilot = AutoPilot(mvedsua, warmup_ns=5 * SECOND,
                      min_validated_requests=5,
                      confirm_ns=5 * SECOND)
    mvedsua.request_update(KVStoreV2(), 10 * SECOND, rules=kv_rules())
    for tick in range(25):
        now = (11 + tick) * SECOND
        client.command(mvedsua, b"PUT key%d v" % tick, now=now)
        action = pilot.observe(now)
        if action:
            print(f"\n[auto-pilot @ {11 + tick}s] {action}")
        if tick % 8 == 0:
            print(f"[metrics @ {11 + tick}s] {metrics_line(tracer)}")

    print("\n== final status ==")
    print(console.render_status())
    print("\n== final metrics ==")
    for name, entry in sorted(tracer.metrics().items()):
        rendered = " ".join(f"{key}={value}"
                            for key, value in sorted(entry.items())
                            if key != "type")
        print(f"  {name:24s} {rendered}")
    print(f"  trace events collected: {tracer.event_count}")
    print("\n== post-mortems ==")
    print(render_history(mvedsua))
    print("\nGET balance ->",
          client.command(mvedsua, b"GET balance", now=60 * SECOND))


if __name__ == "__main__":
    main()
