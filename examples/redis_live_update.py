"""Updating Redis 2.0.0 -> 2.0.1 under load, with fault injection.

Part 1 — semantics: runs the real (simulated) Redis through the update
while a client issues writes; the 2.0.1 AOF-ordering change is
reconciled by the one DSL rule the paper needed (§5.2).

Part 2 — the HMGET crash (§6.2): the update introduces revision
7fb16bac's bug.  A bad HMGET crashes the updated follower; Mvedsua
rolls back and the client sees only the old version's error reply.

Part 3 — performance: the fluid simulation regenerates the Figure 7
pause-vs-buffer-size story for a 1M-entry store.

Run with:  python examples/redis_live_update.py
"""

from repro.bench.fluid import FluidConfig, FluidSim, UpdatePlan
from repro.core import Mvedsua
from repro.net import VirtualKernel
from repro.obs.trace import Tracer
from repro.servers.redis import (
    RedisServer,
    redis_rules,
    redis_transforms,
    redis_version,
)
from repro.sim.engine import SECOND
from repro.sites import observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient
from repro.workloads.memtier import MemtierSpec


def part1_clean_update() -> None:
    print("== part 1: clean 2.0.0 -> 2.0.1 update ==")
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0"))
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["redis"],
                      transforms=redis_transforms())
    client = VirtualClient(kernel, server.address)

    client.command(mvedsua, b"SET user:1 alice")
    client.command(mvedsua, b"LPUSH queue job-1")
    mvedsua.request_update(redis_version("2.0.1"), SECOND,
                           rules=redis_rules("2.0.0", "2.0.1"))
    # Writes during catch-up exercise the reversed AOF/reply ordering;
    # the run log says which rules reconciled them.
    tracer = Tracer()
    with observing(tracer=tracer):
        print("SET user:2 bob ->",
              client.command(mvedsua, b"SET user:2 bob", now=2 * SECOND))
    print("rules fired:", [event.fields["rule"] for event in tracer.events
                           if event.kind == "rule.fired"])
    mvedsua.promote(3 * SECOND)
    mvedsua.finalize(4 * SECOND)
    print("now running:", mvedsua.current_version)
    print("GET user:2 ->",
          client.command(mvedsua, b"GET user:2", now=5 * SECOND))


def part2_hmget_crash() -> None:
    print("\n== part 2: the update carries the HMGET crash bug ==")
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0", hmget_bug=False))
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["redis"],
                      transforms=redis_transforms())
    client = VirtualClient(kernel, server.address)

    client.command(mvedsua, b"SET wrongtype value")
    mvedsua.request_update(redis_version("2.0.1", hmget_bug=True),
                           SECOND, rules=redis_rules("2.0.0", "2.0.1"))
    print("HMGET wrongtype f ->",
          client.command(mvedsua, b"HMGET wrongtype f", now=2 * SECOND))
    outcome = mvedsua.last_outcome()
    print("update rolled back:", outcome.rolled_back())
    print("still serving:", mvedsua.current_version,
          "| GET wrongtype ->",
          client.command(mvedsua, b"GET wrongtype", now=3 * SECOND))


def part3_pause_vs_buffer() -> None:
    print("\n== part 3: update pause vs ring-buffer size (Figure 7) ==")
    for label, ring, kitsune in (("kitsune (in-place)", 256, True),
                                 ("mvedsua 2^10", 1 << 10, False),
                                 ("mvedsua 2^24", 1 << 24, False)):
        config = FluidConfig(profile=PROFILES["redis"], ring_capacity=ring,
                             initial_entries=1_000_000,
                             spec=MemtierSpec(duration_ns=240 * SECOND))
        plan = UpdatePlan(request_at=120 * SECOND, promote_at=180 * SECOND,
                          finalize_at=230 * SECOND)
        result = FluidSim(config).run(plan=plan, kitsune_in_place=kitsune)
        print(f"  {label:20s} max latency "
              f"{result.max_latency_ns / 1e6:8.0f} ms")


def main() -> None:
    part1_clean_update()
    part2_hmget_crash()
    part3_pause_vs_buffer()


if __name__ == "__main__":
    main()
