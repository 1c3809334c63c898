"""N-version execution: Varan's general mode (one leader, many followers).

Beyond Mvedsua's two-process arrangement, the MVE runtime can shepherd
several replicas at once — the pair is just the one-lane case of
``VaranRuntime`` — so "a bug that affects only some of the processes is
tolerated by the others which continue execution".  This example runs a
leader with three followers — an identical copy, a diversified replica
carrying a latent bug, and a dynamically-updated v2.0 with its rewrite
rules — and shows partial failure and leader fail-over.

Run with:  python examples/nversion_execution.py
"""

from repro.errors import ServerCrash
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


class DiversifiedReplica(KVStoreV1):
    """Same semantics, different build — with a replica-specific bug."""

    def handle(self, heap, request, session=None, io=None):
        if request.startswith(b"PUT unlucky "):
            raise ServerCrash("address-space-layout-specific crash")
        return super().handle(heap, request, session, io)


def main() -> None:
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
    client = VirtualClient(kernel, server.address)

    client.command(runtime, b"PUT warm up")

    # Follower 0: identical copy.
    runtime.fork_follower(10**9)
    # Follower 1: diversified replica with a latent bug.
    diversified = server.fork()
    diversified.version = DiversifiedReplica()
    diversified.program.version = diversified.version
    runtime.fork_follower(10**9, server=diversified)
    # Follower 2: dynamically updated v2.0 with its rewrite rules.
    updated = server.fork()
    updated.apply_version(KVStoreV2(), xform_1_to_2(dict(updated.heap)))
    runtime.fork_follower(10**9, server=updated, rules=kv_rules())

    print(f"group size: {1 + len(runtime.lanes)} "
          f"(1 leader + {len(runtime.lanes)} followers)")

    for index, key in enumerate(("alpha", "beta", "unlucky", "gamma")):
        client.command(runtime, b"PUT %s v%d" % (key.encode(), index),
                       now=2 * 10**9 + index)
    runtime.drain_follower()

    print(f"after the 'unlucky' write: group size {1 + len(runtime.lanes)}")
    for event in runtime.events:
        print(f"  [{event.at / 1e9:6.2f}s] {event.kind}: "
              f"{event.detail[:60]}")
    print("leader answers:",
          client.command(runtime, b"GET unlucky", now=10**10))
    print("survivors stayed in sync:",
          all(lane.process.server.heap["table"].keys()
              == runtime.leader.server.heap["table"].keys()
              for lane in runtime.lanes
              if lane.process.version_name == "1.0"))


if __name__ == "__main__":
    main()
