"""The leader's request path, held to a frame budget.

What one closed-loop request costs the host is, to first order, how many
Python frames it enters.  ``sys.setprofile`` counts them exactly (one
``call`` event per frame; C calls are not frames), the count repeats
run for run, and it does not depend on the machine — so it is a tier-1
assert, where host time (``hostbench``) never could be.  The ceilings
are the counts measured on CPython 3.11 (3.9 and 3.10 read the same,
3.12 and 3.13 slightly lower) plus headroom; docs/performance.md
(PR 22) has the per-function table behind them.
"""

import gc
import sys

from repro.apps import deploy
from repro.mve import VaranRuntime
from repro.obs.trace import Tracer
from repro.sites import OBS, observing
from repro.workloads.memtier import MemtierSpec

WARMUP, REQUESTS = 500, 2_000

#: Steady single-leader stack (Redis 2.0.0 alone behind Varan), no
#: observer installed: 66.4 frames per request before PR 22, 36.4 after.
LEADER_CEILING = 46
#: The same stack with one identical follower attached (leader publish,
#: follower replay, the final drain): 155.0 before PR 22, 117.0 after it
#: (the leader half and the shared kernel-free pieces), 87.7 after PR 24
#: (the follower step: C-level ring entries, no generator per burst, the
#: REPLAY gateway's take and emit in place).  Ceiling = measured + 2.
PAIR_CEILING = 90
#: A kvstore 1.0 -> 2.0 pair in the outdated-leader stage under the
#: shipped DSL rules (``kv_rules_from_dsl()``), through ``Mvedsua``:
#: every READ is tested against two compiled ``where`` guards, which
#: are C calls, not frames — 79.3 measured; 115.3 at PR 23, when each
#: guard was four frames (``combined``, its genexpr twice, ``evaluate``)
#: and each dispatch lookup an ``Enum.__hash__``.  Ceiling = measured + 2.
DSL_PAIR_CEILING = 82


def warmed_stack():
    """``(runtime, drive)``: the steady stack after ``WARMUP`` requests;
    ``drive()`` sends the next ``REQUESTS`` Memtier requests."""
    stack = deploy("redis", "2.0.0", VaranRuntime)
    client, runtime = stack.client("budget"), stack.runtime
    commands = list(MemtierSpec().commands(WARMUP + REQUESTS,
                                           protocol="redis", seed=101))
    now = 0
    for command in commands[:WARMUP]:
        _, now = client.request(runtime, command, now + 1)

    def drive():
        at = now
        for command in commands[WARMUP:]:
            _, at = client.request(runtime, command, at + 1)
    return runtime, drive


def kvstore_update_stack():
    """``(runtime, drive)`` like :func:`warmed_stack`: kvstore 1.0 under
    ``Mvedsua`` after ``WARMUP`` requests, updating to 2.0 under the
    pair's shipped DSL rules; ``drive()`` sends the next ``REQUESTS``
    PUT/PUT/GET requests to the pair."""
    stack = deploy("kvstore", "1.0")
    client, mvedsua = stack.client("budget"), stack.runtime
    commands = [b"GET k%d\r\n" % (index % 97) if index % 3 == 2
                else b"PUT k%d v%d\r\n" % (index % 97, index)
                for index in range(WARMUP + REQUESTS)]
    now = 0
    for command in commands[:WARMUP]:
        _, now = client.request(mvedsua, command, now + 1)
    assert stack.update("2.0", now + 1).ok

    def drive():
        at = now + 1
        for command in commands[WARMUP:]:
            _, at = client.request(mvedsua, command, at + 1)
    return mvedsua.runtime, drive


def frames_per_request(*, follower=False, stack=warmed_stack):
    """Python frames entered per request by ``stack``'s ``drive()``
    (and, with a ``follower`` attached, the final drain)."""
    runtime, drive = stack()
    if follower and not runtime.lanes:
        runtime.fork_follower(runtime.leader.cpu.busy_until)
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    # A collection inside the window would run whatever finalizers
    # earlier tests left behind, and count their frames as ours.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        drive()
        if follower:
            runtime.drain_follower()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert runtime.last_divergence is None
    return frames / REQUESTS


def test_the_leader_path_stays_inside_its_frame_budget():
    assert OBS.tracer is None and OBS.chaos is None and OBS.recorder is None
    measured = frames_per_request()
    assert measured <= LEADER_CEILING
    assert frames_per_request() == measured  # exact, run for run


def test_a_request_is_still_seven_kernel_crossings():
    # The structure the budget was met inside of: the client's write
    # and read, pump's two readiness checks, and the server iteration's
    # epoll_wait, read and write.
    _, drive = warmed_stack()
    tracer = Tracer()
    with observing(tracer=tracer):
        drive()
    assert tracer.kind_tally()["kernel.enter"] == 7 * REQUESTS


def test_the_one_lane_pair_has_a_recorded_baseline():
    assert frames_per_request(follower=True) <= PAIR_CEILING


def test_a_dsl_guard_costs_no_frames():
    measured = frames_per_request(follower=True, stack=kvstore_update_stack)
    assert measured <= DSL_PAIR_CEILING
    assert frames_per_request(follower=True,
                              stack=kvstore_update_stack) == measured
