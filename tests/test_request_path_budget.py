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
#: follower replay, the final drain): 155.0 before PR 22, 117.0 after —
#: what the leader half and the shared kernel-free pieces gave back.
#: Ceiling = measured + 2: the baseline for the follower half's own PR.
PAIR_CEILING = 119


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


def frames_per_request(*, follower=False):
    """Python frames entered per request by ``drive()`` (and, with a
    ``follower`` attached, the final drain)."""
    runtime, drive = warmed_stack()
    if follower:
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
