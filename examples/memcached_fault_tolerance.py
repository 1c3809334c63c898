"""Memcached under Mvedsua: threads, LibEvent, and update errors (§5.3/§6.2).

1. Without the paper's 114-line adaptation, the update can't even
   quiesce (worker threads are parked inside LibEvent's loop).
2. With the epoll-update-point extension but *without* the LibEvent
   reset callback, the update installs but spuriously diverges — Mvedsua
   rolls it back and clients never notice.
3. A buggy state transformer that frees memory LibEvent still uses
   crashes the updated process only under many clients — tolerated the
   same way.
4. Retrying a nondeterministic timing failure every 500 ms eventually
   installs the update (paper: max 8 retries, median 2).

Run with:  python examples/memcached_fault_tolerance.py
"""

from repro.chaos import ChaosInjector
from repro.chaos.plans import e3_timing_plan
from repro.core import Mvedsua, RetryPolicy
from repro.dsu.transform import TransformRegistry
from repro.net import VirtualKernel
from repro.servers.memcached import (
    MANY_CLIENTS_THRESHOLD,
    MemcachedServer,
    memcached_transforms,
    memcached_version,
    xform_free_libevent,
)
from repro.sim.engine import MILLISECOND, SECOND
from repro.sim.rng import RngStreams
from repro.sites import observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def deployment(adapted=True, reset=None, transforms=None):
    kernel = VirtualKernel()
    server = MemcachedServer(memcached_version("1.2.2"),
                             mvedsua_adapted=adapted,
                             libevent_reset_on_abort=reset)
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["memcached"],
                      transforms=transforms or memcached_transforms())
    return kernel, server, mvedsua


def part1_unadapted() -> None:
    print("== part 1: update without the Mvedsua adaptation ==")
    _, _, mvedsua = deployment(adapted=False)
    attempt = mvedsua.request_update(memcached_version("1.2.3"), SECOND)
    print("  outcome:", attempt.reason, "-", attempt.error)


def part2_dispatch_memory() -> None:
    print("\n== part 2: LibEvent dispatch memory (no reset callback) ==")
    kernel, server, mvedsua = deployment(adapted=True, reset=False)
    alice = VirtualClient(kernel, server.address, "alice")
    bob = VirtualClient(kernel, server.address, "bob")
    alice.command(mvedsua, b"get warm")  # advances the cursor
    mvedsua.request_update(memcached_version("1.2.3"), SECOND)
    alice.send(b"set p 0 0 1\r\n1\r\n")
    bob.send(b"set q 0 0 1\r\n2\r\n")
    mvedsua.pump(2 * SECOND)
    print("  divergence:", str(mvedsua.runtime.last_divergence)[:70], "...")
    print("  rolled back:", mvedsua.last_outcome().rolled_back(),
          "| clients got:", alice.recv(), bob.recv())


def part3_freed_buffer() -> None:
    print("\n== part 3: state transformer frees LibEvent memory ==")
    buggy = TransformRegistry()
    buggy.register("memcached", "1.2.2", "1.2.3", xform_free_libevent)
    kernel, server, mvedsua = deployment(transforms=buggy)
    clients = [VirtualClient(kernel, server.address, f"c{i}")
               for i in range(MANY_CLIENTS_THRESHOLD + 1)]
    for index, client in enumerate(clients):
        client.command(mvedsua, b"set k%d 0 0 1\r\nv" % index)
    mvedsua.request_update(memcached_version("1.2.3"), SECOND)
    reply = clients[0].command(mvedsua, b"get k0", now=2 * SECOND)
    print("  follower crashed during catch-up; rolled back:",
          mvedsua.last_outcome().rolled_back())
    print("  client reply (from the untouched leader):", reply)


def part4_retry() -> None:
    print("\n== part 4: retrying a nondeterministic timing failure ==")
    _, _, mvedsua = deployment()
    # Every quiesce attempt races the update signal against live locks:
    # with probability 0.75 a worker is caught holding one (§6.2's E3).
    plan = e3_timing_plan(RngStreams(1).stream("example-retry"))
    with observing(chaos=ChaosInjector(plan)):
        attempts = mvedsua.request_update_with_retry(
            memcached_version("1.2.3"), SECOND,
            policy=RetryPolicy(retry_wait_ns=500 * MILLISECOND))
    print(f"  installed after {len(attempts) - 1} retries "
          f"({', '.join(a.reason for a in attempts)})")
    print("  stage:", mvedsua.stage.value)


def main() -> None:
    part1_unadapted()
    part2_dispatch_memory()
    part3_freed_buffer()
    part4_retry()


if __name__ == "__main__":
    main()
