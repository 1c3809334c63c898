"""The leader's request path, held to a frame budget.

What one closed-loop request costs the host is, to first order, how many
Python frames it enters.  ``sys.setprofile`` counts them exactly (one
``call`` event per frame; C calls are not frames), the count repeats
run for run, and it does not depend on the machine — so it is a tier-1
assert, where host time (``hostbench``) never could be.  The ceilings
are the counts measured on CPython 3.11 (3.9 and 3.10 read the same,
3.12 and 3.13 slightly lower) plus headroom; the history table of
docs/performance.md points to the change that measured them.
"""

import gc
import inspect
import json
import os
import subprocess
import sys
from collections import Counter

from repro.apps import deploy
from repro.chaos.campaign import run_cell
from repro.chaos.plan import Fault, FaultPlan, on_call
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.obs.trace import Tracer
from repro.sites import OBS, observing
from repro.workloads.memtier import MemtierSpec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP, REQUESTS = 500, 2_000

#: Steady single-leader stack (Redis 2.0.0 alone behind Varan), no
#: observer installed: 66.4 frames per request before PR 22, 36.4 after,
#: 28.4 after PR 39 (``pump`` reads the ready set and the client its own
#: endpoint: 8 frames of kernel entry gone), 27.0 since the gateway
#: resets its iteration trace in place.  Ceiling = measured + 2.
LEADER_CEILING = 29
#: The same stack with one identical follower attached (leader publish,
#: follower replay, the final drain): 155.0 before PR 22, 117.0 after it
#: (the leader half and the shared kernel-free pieces), 87.7 after PR 24
#: (the follower step: C-level ring entries, no generator per burst, the
#: REPLAY gateway's take and emit in place), 79.7 after PR 39 (the
#: leader's 8), 66.7 since the follower rewrites an iteration in one
#: rule-engine pass (no ``offer``/``flush`` per record) and reads its
#: version name once, 61.7 since each lane keeps its rule engine across
#: iterations, the gateway resets its trace in place and the REPLAY
#: ``epoll_wait`` checks its record in place.  Ceiling = measured + 2.
PAIR_CEILING = 64
#: A kvstore 1.0 -> 2.0 pair in the outdated-leader stage under the
#: shipped DSL rules (``kv_rules_from_dsl()``), through ``Mvedsua``:
#: every READ is tested against two compiled ``where`` guards, which
#: are C calls, not frames — 79.3 measured at PR 24, 71.3 after PR 39
#: (the leader's 8); 115.3 at PR 23, when each guard was four frames
#: (``combined``, its genexpr twice, ``evaluate``) and each dispatch
#: lookup an ``Enum.__hash__``.  59.3 since the follower rewrites an
#: iteration in one rule-engine pass, 53.3 since a lane keeps its engine
#: and ``Mvedsua._advance_follower`` reads the lanes, not
#: ``in_mve_mode``.  Ceiling = measured + 2.
DSL_PAIR_CEILING = 56
#: A Redis 2.0.0 -> 2.0.1 pair in the outdated-leader stage under the
#: shipped rules, on a 50/50 Memtier mix: ``aof_order`` matches a
#: two-record pattern on every SET.  95.4 frames per request while the
#: engine took an ``offer``, a dispatch lookup and a ``matches`` frame
#: per pattern position for each record, and the AOF append went
#: through ``_replay`` and ``_emit``; 67.0 with the one-pass rewrite,
#: 61.0 without a rule engine built per iteration.  Ceiling = measured
#: + 2.
REDIS_PAIR_CEILING = 63
#: The steady stack of ``LEADER_CEILING`` with a ``Tracer()`` in the
#: tracer slot: 56.5 frames per request while the kernel and the
#: gateway logged each call (14 ``on_kernel``, 3.1 ``on_syscall``, 3
#: ``_emit``, and the client's and ``pump``'s 8 frames of kernel entry
#: the unobserved path skips), 32.4 since the run log takes one
#: ``iteration`` event per leader iteration (``emit``,
#: ``IterationTrace.log_to`` and its list comprehension,
#: ``version_name``), 31.0 with the trace reset in place.  Ceiling =
#: measured + 2.
TRACED_LEADER_CEILING = 33
#: One kvstore chaos cell — the whole update lifecycle of
#: ``run_kv_update_scenario`` under one on-call ``kernel.read`` fault,
#: invariants included — in frames per cell: 1 869 while a fork
#: deep-copied the non-heap image, every kernel call of the server and
#: the clients entered ``fire`` and the invariant checker formatted an
#: error prefix per observation; 1 454 since a fork copies by hand, an
#: unarmed kernel site is one counter bump, a client no site sees uses
#: its endpoint and a clean observation formats nothing.  Ceiling =
#: measured + 26 (under 2 %).
CHAOS_CELL_CEILING = 1_480


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


def redis_update_stack():
    """``(runtime, drive)`` like :func:`kvstore_update_stack`: Redis
    2.0.0 under ``Mvedsua`` after ``WARMUP`` requests of a 50/50 Memtier
    mix, updating to 2.0.1 under the pair's shipped rules, whose
    ``aof_order`` swaps every SET's reply and AOF append; ``drive()``
    sends the next ``REQUESTS`` requests of the mix to the pair."""
    stack = deploy("redis", "2.0.0")
    client, mvedsua = stack.client("budget"), stack.runtime
    commands = list(MemtierSpec(read_fraction=0.5).commands(
        WARMUP + REQUESTS, protocol="redis", seed=101))
    now = 0
    for command in commands[:WARMUP]:
        _, now = client.request(mvedsua, command, now + 1)
    assert stack.update("2.0.1", now + 1).ok

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


def kernel_entries(drive):
    """``VirtualKernel`` method entries, by name, while ``drive()`` runs."""
    methods = {function.__code__: name
               for name, function in vars(VirtualKernel).items()
               if inspect.isfunction(function)}
    entries = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in methods:
            entries[methods[frame.f_code]] += 1

    sys.setprofile(count)
    try:
        drive()
    finally:
        sys.setprofile(None)
    return entries


def test_a_request_is_still_seven_kernel_crossings():
    # Under a tracer the path is the unobserved one: the run log reads
    # each iteration off the gateway's trace, so no kernel call looks
    # at the tracer and none is added for it.  Seven crossings before
    # the log read iterations (the client's write and read and pump's
    # two readiness checks went through the kernel to be logged); the
    # server iteration's epoll_wait, read and write since.
    _, drive = warmed_stack()
    tracer = Tracer()
    with observing(tracer=tracer):
        entries = kernel_entries(drive)
    assert entries == {"epoll_wait": REQUESTS, "read": REQUESTS,
                       "write": REQUESTS}
    assert tracer.kind_tally() == {"iteration": REQUESTS}


def test_an_unobserved_request_is_three_kernel_crossings():
    # With no observer installed only the server's own syscalls enter
    # the kernel: the iteration's epoll_wait, read and write.  ``pump``
    # tests the leader's ready set and the client uses its own endpoint.
    assert OBS.tracer is None and OBS.chaos is None and OBS.spans is None
    _, drive = warmed_stack()
    assert kernel_entries(drive) == {"epoll_wait": REQUESTS,
                                     "read": REQUESTS, "write": REQUESTS}


def test_a_traced_request_stays_inside_its_frame_budget():
    # A writer in the tracer slot adds one ``iteration`` event per
    # leader iteration, not one or more per call.
    with observing(tracer=Tracer()):
        measured = frames_per_request()
        assert frames_per_request() == measured
    assert measured <= TRACED_LEADER_CEILING


def test_the_one_lane_pair_has_a_recorded_baseline():
    assert frames_per_request(follower=True) <= PAIR_CEILING


def test_a_dsl_guard_costs_no_frames():
    measured = frames_per_request(follower=True, stack=kvstore_update_stack)
    assert measured <= DSL_PAIR_CEILING
    assert frames_per_request(follower=True,
                              stack=kvstore_update_stack) == measured


def test_a_rule_heavy_redis_pair_rewrites_each_iteration_in_one_pass():
    measured = frames_per_request(follower=True, stack=redis_update_stack)
    assert measured <= REDIS_PAIR_CEILING
    assert frames_per_request(follower=True,
                              stack=redis_update_stack) == measured


def frames_per_chaos_cell():
    """Python frames one kvstore chaos cell enters, after a warm-up
    cell (rule parsing and dispatch caches stay out of the count)."""
    def plan():
        return FaultPlan("budget", (
            Fault("kernel.read", "short-read", on_call(5),
                  param={"bytes": 3}),))

    run_cell(plan())
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = run_cell(plan())
    finally:
        sys.setprofile(None)
        gc.enable()
    assert len(result.injections) == 1 and result.timeline.succeeded()
    return frames


def test_a_chaos_cell_pays_for_its_fault_not_its_harness():
    measured = frames_per_chaos_cell()
    assert measured <= CHAOS_CELL_CEILING
    assert frames_per_chaos_cell() == measured


def test_the_frames_tool_counts_the_same_leader_path(tmp_path):
    # ``tools/frames.py`` counts hostbench's own steady-single-leader
    # run (in a fresh process, so the benchmark's modules stay out of
    # this one).  Its run is cold and uses the workload's command mix,
    # where this file warms up first: the totals agree to within half a
    # frame per request, not exactly.
    out = tmp_path / "frames.json"
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "frames.py"),
         "--workload", "steady-single-leader", "--smoke", "--json",
         str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    cell = json.loads(out.read_text())["workloads"]["steady-single-leader"]
    assert cell["failed"] == 0
    assert abs(cell["total_per_op"] - frames_per_request()) < 0.5


def test_the_frames_tool_counts_lines_exactly_under_the_same_layers(
        tmp_path):
    # ``--lines`` adds a ``sys.settrace`` pass: every line executed is
    # charged to the layer its frame runs under, so a loop inside one
    # frame shows.  Each frame runs at least one line, and two runs in
    # fresh processes read the same table.
    reports = []
    for run in range(2):
        out = tmp_path / f"lines{run}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "frames.py"),
             "--workload", "steady-single-leader", "--smoke", "--lines",
             "--json", str(out)], capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert "\nlines per op " in done.stdout
        reports.append(
            json.loads(out.read_text())["workloads"]["steady-single-leader"])
    cell = reports[0]
    assert cell["lines_per_op"] == reports[1]["lines_per_op"]
    assert set(cell["lines_per_op"]) == set(cell["frames_per_op"])
    for layer, frames in cell["frames_per_op"].items():
        assert cell["lines_per_op"][layer] >= frames
    assert cell["lines_total_per_op"] > cell["total_per_op"]


def test_a_generated_command_is_one_set_up_frame(tmp_path):
    # ``--setup`` counts each builder after a warm-up build.  The Memtier
    # generator is one resume per command (its key drawn inline, its
    # bytes one template) where it entered four frames (``UniformKeys.
    # sample``, ``randrange``, ``_randbelow_with_getrandbits``): 1.04
    # set-up frames per op on steady-single-leader, 4.03 before.  A
    # build whose thunk never runs leaves no recording directory.
    scratch = os.path.join(REPO, "hostbench", ".scratch")
    before = set(os.listdir(scratch)) if os.path.isdir(scratch) else set()
    out = tmp_path / "setup.json"
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "frames.py"),
         "--setup", "--functions", "3", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "set-up frames per op" in done.stdout
    report = json.loads(out.read_text())
    assert report["pass"] == "setup"
    for name in ("steady-single-leader", "update-rule-heavy"):
        cell = report["workloads"][name]
        assert cell["functions_per_op"][
            "repro/workloads/memtier.py:MemtierSpec.commands"] <= 1.01
        assert not any("randrange" in function or "sample" in function
                       for function in cell["functions_per_op"])
    assert report["workloads"]["steady-single-leader"]["total_per_op"] < 1.1
    after = set(os.listdir(scratch)) if os.path.isdir(scratch) else set()
    assert after == before
