"""The MVE runtime (Varan analogue).

One :class:`VaranRuntime` supervises an MVE group: a leader executing
against the virtual kernel and any number of follower *lanes*, each
replaying the leader's syscall stream through its own ring buffer and
rewrite rules.  Mvedsua's leader/follower pair is the one-lane case of
the same code; Varan's general N-version mode ("a bug that affects only
some of the processes is tolerated by the others") is more lanes.

Responsibilities, matching the paper's description of Varan plus the
extensions Mvedsua made to it (§4):

* **single-leader mode** — syscall interception with kernel-state
  tracking but no recording; the steady-state of a Mvedsua deployment.
* **fork** — create a follower as a copy of the leader at quiescence.
* **leader serving** — execute iterations, register records on the ring
  buffer, and *block* when the buffer fills until the follower frees
  slots (the source of Figure 7's latency dynamics).
* **follower replay** — re-execute iterations against the expected
  stream (leader records after rewrite rules), detecting divergences.
* **promotion/demotion** — swap roles via a control event in the stream.
* **failure policy** — terminate only the diverging or crashed
  follower's lane; when the leader crashes, drain every lane and promote
  the first healthy follower (the paper's recovery story for both
  new-version and old-version errors).

Virtual-time accounting: the leader and each follower own separate CPUs.
Leader iterations charge leader time (with the mode's overhead factors);
records are pushed at leader completion times, lane by lane, so the
slowest follower bounds the leader; follower replay charges follower
time, starting no earlier than the records' produce times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Any, Deque, Iterable, List, NamedTuple, Optional,
                    Sequence)

from repro.errors import DivergenceError, ServerCrash, SimulationError
from repro.mve.dsl.rules import Direction, RuleEngine, RuleSet
from repro.mve.events import ControlEvent, ControlKind
from repro.mve.gateway import GatewayRole, IterationTrace, SyscallGateway
from repro.mve.ring_buffer import Payload, RingBuffer, RingEntry
from repro.obs.forensics import FORENSICS_LAST_K, build_divergence_bundle
from repro.net.kernel import VirtualKernel
from repro.sim.process import CpuAccount
from repro.sites import OBS
from repro.syscalls.costs import AppProfile, ExecutionMode, FORK_PAUSE_NS
from repro.syscalls.model import DATA_BEARING, Sys, SyscallRecord

#: Bytes prepended by the "corrupt-record" chaos fault; distinctive so
#: forensics tests can assert the diverging pair carries the corruption.
CORRUPTION_MARKER = b"\xff<chaos-corrupt>"


def _corrupt_expected(expected: List[SyscallRecord],
                      param) -> List[SyscallRecord]:
    """Corrupt one data-bearing record in the follower's expected stream.

    Targets the first record with non-empty data (or the
    ``record_index``-th data-bearing record when the fault says so).
    The marker is *prepended*: a corrupted READ then frames into a
    corrupted request the replica answers differently right away, and a
    corrupted WRITE mismatches the replica's own output directly.
    (Appending after a request's CRLF would instead park the corruption
    in framing leftovers, where it could survive a promotion unseen —
    precisely the silent propagation the divergence check must prevent.)
    """
    target = int(param.get("record_index", 0))
    seen = 0
    corrupted = list(expected)
    for index, record in enumerate(corrupted):
        if record.name in DATA_BEARING and record.data:
            if seen == target:
                corrupted[index] = record.with_data(
                    CORRUPTION_MARKER + record.data)
                break
            seen += 1
    return corrupted


def rewrite_iteration(engine: Optional[RuleEngine],
                      payloads: Sequence[SyscallRecord]
                      ) -> List[SyscallRecord]:
    """One leader iteration's records as the follower must issue them:
    run through ``engine``'s stage rules (``None`` = identity), the
    whole iteration in one :meth:`RuleEngine.rewrite` pass."""
    if engine is None:
        return list(payloads)
    engine.rewrite(payloads)
    return engine.take_ready()


def replay_iteration(server: Any, gateway: SyscallGateway,
                     expected: Sequence[SyscallRecord],
                     engine: Optional[RuleEngine], *, at: int, version: str,
                     leader_version: str, ring_history: Iterable[Any],
                     ring_pending: Iterable[Any] = ()) -> None:
    """Re-execute one leader iteration on a follower.

    ``server`` runs behind its REPLAY ``gateway``, every syscall served
    from and checked against ``expected`` (the iteration after
    :func:`rewrite_iteration` through ``engine``).  A mismatch re-raises
    the :class:`DivergenceError` annotated with ``at``/``version`` and
    carrying the monitor's state as ``.forensics``.  The live monitor
    and offline replay (:mod:`repro.replay.engine`) both run followers
    through this one step.
    """
    gateway.begin_iteration(expected)
    try:
        server.run_iteration(gateway)
        gateway.finish_iteration()
    except DivergenceError as divergence:
        divergence.annotate(at=at, version=version)
        divergence.forensics = build_divergence_bundle(
            at=at,
            version=version,
            leader_version=leader_version,
            error=divergence,
            ring_history=ring_history,
            ring_pending=ring_pending,
            expected_records=expected,
            issued_records=gateway.trace.records,
            rules_fired=list(engine.fired) if engine is not None else [],
        )
        raise


class IterationDescriptor(NamedTuple):
    """One published burst awaiting follower replay: an iteration's
    ``n_records`` ring entries, or a single control event."""

    n_records: int
    control: Optional[ControlEvent] = None


@dataclass
class RuntimeEvent:
    """One entry in the runtime's event log (consumed by tests/reports)."""

    at: int
    kind: str
    detail: str = ""


class ManagedProcess:
    """One version under MVE supervision: server + CPU + gateway."""

    def __init__(self, server: Any, gateway: SyscallGateway,
                 cpu: CpuAccount, label: str) -> None:
        self.server = server
        self.gateway = gateway
        self.cpu = cpu
        self.label = label
        self.crashed = False

    @property
    def version_name(self) -> str:
        return self.server.version.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ManagedProcess {self.label} {self.version_name}>"


class FollowerLane:
    """One follower and what feeds it: the process, the ring the leader
    publishes into, the published bursts it has yet to replay, the
    rewrite rules that bridge its version to the leader's, and the ring
    entries it consumed last (a divergence's forensics).

    ``engine`` is the rule engine of the stage ``engine_key``; a
    replayed iteration reuses it until the stage changes (a lane's
    rules are never rebound, only the runtime's default)."""

    __slots__ = ("process", "ring", "rules", "pending", "history",
                 "engine", "engine_key")

    def __init__(self, process: ManagedProcess, ring: RingBuffer,
                 rules: RuleSet) -> None:
        self.process = process
        self.ring = ring
        self.rules = rules
        self.pending: Deque[IterationDescriptor] = deque()
        self.history: Deque[RingEntry] = deque(maxlen=FORENSICS_LAST_K)
        self.engine: Optional[RuleEngine] = None
        self.engine_key: Optional[Direction] = None


class VaranRuntime:
    """Supervises one MVE group over one kernel domain."""

    def __init__(self, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *,
                 ring_capacity: int = 256,
                 with_kitsune: bool = True,
                 rules: Optional[RuleSet] = None,
                 ring: Optional[RingBuffer] = None) -> None:
        self.kernel = kernel
        self.profile = profile
        #: The runtime's own ring, feeding the first lane of every
        #: follower generation (cleared on termination, resynced at the
        #: next fork; watermark and wire stats are cumulative).  ``ring``
        #: substitutes it wholesale (a
        #: :class:`~repro.mve.distring.DistributedRing` for cross-node
        #: pairs); lanes forked beside a live one get a local ring of
        #: the same capacity.
        self.ring = ring if ring is not None else RingBuffer(ring_capacity)
        #: Rewrite rules of a lane forked without its own.
        self.rules = rules if rules is not None else RuleSet()
        self.with_kitsune = with_kitsune
        self.domain = server.domain
        gateway = SyscallGateway(kernel, self.domain, GatewayRole.DIRECT)
        self.leader = ManagedProcess(server, gateway, CpuAccount("leader"),
                                     "leader")
        #: The group's epoll ready set, live: what ``pump`` tests for
        #: input.  Every leader shares the domain and epoll fd (a fork
        #: copies the fd numbers); :meth:`_take_lead` checks it.
        self.ready = kernel.ready_set(self.domain, server.epoll_fd)
        #: Live follower lanes, in fork order.
        self.lanes: List[FollowerLane] = []
        #: Cost-model mode for leader execution right now; reassigned
        #: wherever ``lanes`` gains or loses a follower.
        self.leader_mode = self._leader_mode()
        #: Which stage's rules apply to follower replay.
        self.stage_direction = Direction.OUTDATED_LEADER
        self.events: List[RuntimeEvent] = []
        self.last_divergence: Optional[DivergenceError] = None
        #: Optional callback invoked with every RuntimeEvent as it is
        #: logged; the Mvedsua orchestrator subscribes to track stages.
        self.observer = None
        #: Cumulative syscall records the leader emitted (a ``repro perf``
        #: gauge).
        self.total_syscalls = 0
        #: Times a full ring blocked the leader (always counted —
        #: ``repro perf`` gauges it next to ``ring.high_watermark``).
        self.ring_stalls = 0
        #: The run-log writer in the recorder slot, if this runtime won
        #: its claim (:meth:`repro.obs.trace.Tracer.claim`), else None —
        #: scenarios that build several MVE groups record only the
        #: first, and the disabled path stays one attribute load +
        #: ``is None`` per iteration.
        recorder = OBS.recorder
        self.recorder = recorder if recorder is not None \
            and recorder.claim(self) else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def follower(self) -> Optional[ManagedProcess]:
        """The first lane's process — *the* follower of a pair."""
        return self.lanes[0].process if self.lanes else None

    @property
    def in_mve_mode(self) -> bool:
        """True while a follower is attached (leader-follower mode)."""
        return bool(self.lanes)

    def _leader_mode(self) -> ExecutionMode:
        if self.lanes:
            return (ExecutionMode.MVEDSUA_LEADER if self.with_kitsune
                    else ExecutionMode.VARAN_LEADER)
        return (ExecutionMode.MVEDSUA_SINGLE if self.with_kitsune
                else ExecutionMode.VARAN_SINGLE)

    def log(self, at: int, kind: str, detail: str = "") -> None:
        """Append to the runtime event log (and notify any observer)."""
        event = RuntimeEvent(at, kind, detail)
        self.events.append(event)
        if self.observer is not None:
            self.observer(event)
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit(f"mve.{kind}", "mve", at=at, detail=detail)

    def event_kinds(self) -> List[str]:
        """Just the kinds, in order — convenient for assertions."""
        return [event.kind for event in self.events]

    # ------------------------------------------------------------------
    # Leader serving
    # ------------------------------------------------------------------

    def pump(self, now: int) -> int:
        """Run leader iterations until no input is ready.

        Returns the virtual time at which the leader finished.  Crashes
        and divergences are handled by the failure policy; after a crash
        the surviving process carries on within the same call.

        Readiness is read off the group's ready set, with no call into
        the kernel.
        """
        if now > OBS.vnow:
            OBS.vnow = now
        ready = self.ready
        t = max(now, self.leader.cpu.busy_until)
        while True:
            if self.leader.crashed:  # a crash may have promoted a survivor
                raise ServerCrash("leader crashed with no survivor")
            if not ready:
                return t
            t = self._run_leader_iteration(t)

    def _run_leader_iteration(self, start: int) -> int:
        leader = self.leader
        gateway = leader.gateway
        gateway.begin_iteration()
        crash: Optional[ServerCrash] = None
        chaos = OBS.chaos
        if chaos is not None and chaos.fire("mve.leader") is not None:
            # Injected leader kill: the process dies before consuming
            # any input, so a promoted survivor finds it still buffered.
            crash = ServerCrash("chaos: injected leader crash")
        if crash is None:
            try:
                leader.server.run_iteration(gateway)
            except ServerCrash as exc:
                # Without its traceback, whose first frame is this one:
                # kept in a local, it would make the frame a cycle.
                crash = exc.with_traceback(None)
        trace = gateway.trace
        records = trace.records
        self.total_syscalls += len(records)
        completion = leader.cpu.charge(start, self.profile.iteration_cost_ns(
            self.leader_mode, n_requests=trace.requests_handled,
            n_syscalls=len(records), n_bytes=trace.bytes_transferred))
        tracer = OBS.tracer
        if tracer is not None:
            trace.log_to(tracer, "direct", leader.version_name)
        if crash is not None:
            self.log(completion, "leader-crash", str(crash))
            return self._handle_leader_crash(completion, trace)
        if self.lanes:
            completion = self._publish(records, completion)
            leader.cpu.block_until(completion)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_iteration(completion, leader.version_name,
                                  self.in_mve_mode, records)
        return completion

    def _publish(self, payloads: Sequence[Payload], at: int,
                 control: Optional[ControlEvent] = None) -> int:
        """Publish one burst — an iteration's records, or ``control`` as
        a one-payload burst — to every lane in turn; returns when the
        last lane took it, so the slowest follower bounds the leader."""
        t = at
        for lane in list(self.lanes):
            t = self._publish_to_lane(lane, payloads, t, control)
        return t

    def _publish_to_lane(self, lane: FollowerLane,
                         payloads: Sequence[Payload], t: int,
                         control: Optional[ControlEvent]) -> int:
        """Push a burst onto ``lane``'s ring, blocking on back-pressure.

        Batched: each push takes as many payloads as the ring has free
        slots, then (if any remain) replays one follower iteration to
        free space.  Virtual-time semantics match the per-record
        formulation exactly — a push's records all carry the produce
        time the per-record loop would have stamped them with, and
        back-pressure still advances ``t`` to the replay completion.
        """
        ring = lane.ring
        pushed, total = 0, len(payloads)
        tracer = OBS.tracer
        spans = OBS.spans
        chaos = OBS.chaos
        while pushed < total:
            if lane not in self.lanes:
                return t  # follower died while we were blocked
            ring.advance(t)
            if ring.partition_timed_out:
                return self._demote_partitioned(lane, t)
            free = ring.free_slots()
            if free > 0 and chaos is not None and control is None \
                    and lane.pending and chaos.fire("mve.ring") is not None:
                # Injected stall: pretend the ring is full so the leader
                # blocks on one follower replay (needs a queued
                # iteration to replay, hence the pending guard).
                free = 0
            if free == 0:
                self.ring_stalls += 1
                if tracer is not None:
                    tracer.emit("ring.stall", "mve", at=t,
                                capacity=ring.capacity)
                freed_at = self._replay_one(lane)
                if freed_at is None:
                    # Nothing left to replay: the stall is a link's
                    # in-flight window, freed when the earliest ack lands.
                    freed_at = ring.next_free_at()
                if freed_at is None:
                    raise SimulationError(
                        "ring buffer cannot hold one leader iteration "
                        f"(capacity {ring.capacity})")
                if spans is not None:
                    spans.add("mve.ring-stall", "mve", t, max(t, freed_at),
                              capacity=ring.capacity)
                t = max(t, freed_at)
                continue
            take = min(free, total - pushed)
            ring.push_many(payloads[pushed:pushed + take], t)
            pushed += take
            if tracer is not None and control is None:
                tracer.emit("ring.publish", "mve", at=t, count=take,
                            occupancy=len(ring))
        if ring.partition_timed_out:
            return self._demote_partitioned(lane, t)
        lane.pending.append(tuple.__new__(IterationDescriptor,
                                          (total, control)))
        return t

    def _demote_partitioned(self, lane: FollowerLane, t: int) -> int:
        """Demote ``lane``'s follower: its ring's partition budget is
        exhausted (only a link-backed ring ever reports that).  Returns
        ``t``, where the leader carries on."""
        ring = lane.ring
        at = max(t, ring.partition_timed_out_at or t)
        self.log(at, "ring-partition",
                 f"cumulative partition delay {ring.partition_delay_ns}ns "
                 f"exceeded the link budget "
                 f"({ring.link.demote_timeout_ns}ns)")
        self._terminate_lane(lane, at, reason="ring-partition-timeout")
        return t

    # ------------------------------------------------------------------
    # Fork and follower replay
    # ------------------------------------------------------------------

    def fork_follower(self, now: int, *, server: Optional[Any] = None,
                      rules: Optional[RuleSet] = None) -> ManagedProcess:
        """Fork the leader into one more follower at quiescence.

        ``server`` overrides the forked copy (used by Mvedsua, which
        forks and then dynamically updates the child); by default the
        follower is an identical copy — plain Varan's N-version mode.
        ``rules`` bridge this follower's version to the leader's
        (default: the runtime's).

        The leader pays a copy-on-write fork pause.  Returns the new
        follower; the follower's CPU becomes available at fork time.
        """
        fork_done = self.leader.cpu.charge(now, FORK_PAUSE_NS)
        forked = server if server is not None else self.leader.server.fork()
        gateway = SyscallGateway(self.kernel, self.domain, GatewayRole.REPLAY)
        if self.lanes:
            label = f"follower-{len(self.lanes)}"
            ring = RingBuffer(self.ring.capacity)
        else:
            label, ring = "follower", self.ring
        process = ManagedProcess(
            forked, gateway, self.leader.cpu.fork(label, at=fork_done), label)
        self.lanes.append(FollowerLane(
            process, ring, rules if rules is not None else self.rules))
        self.leader_mode = self._leader_mode()
        # A fresh follower joins the replicated stream from the fork
        # point: a link-backed ring flushes the wire and resets its
        # partition accounting.
        ring.resync(fork_done)
        self.log(fork_done, "fork", forked.version.name)
        return process

    def drain_follower(self) -> Optional[int]:
        """Replay every queued iteration on every follower.

        Returns the completion time of the last replayed iteration, or
        None when nothing was replayed.
        """
        last = None
        for lane in list(self.lanes):
            while lane.pending:  # emptied when the lane is terminated
                last = self._replay_one(lane)
        return last

    def _replay_one(self, lane: FollowerLane) -> Optional[int]:
        """Replay ``lane``'s oldest queued burst; returns its completion
        time (None when nothing is queued)."""
        if not lane.pending:
            return None
        descriptor = lane.pending.popleft()
        follower = lane.process
        ring = lane.ring
        if descriptor.control is not None:
            entry = ring.pop()
            swap_at = max(follower.cpu.busy_until, entry.produced_at)
            self._swap_roles(lane, swap_at)
            return swap_at

        entries = ring.pop_many(descriptor.n_records)
        lane.history.extend(entries)
        if entries:
            payloads, produced, _ = zip(*entries)
            ready_at = max(produced)
        else:
            payloads, ready_at = (), 0
        if ready_at > OBS.vnow:
            OBS.vnow = ready_at
        stage = self.stage_direction
        engine = lane.engine
        if lane.engine_key is not stage:
            engine = lane.engine = lane.rules.engine_for_stage(stage)
            lane.engine_key = stage
        else:
            engine.fired.clear()  # the last iteration's firings
        expected = rewrite_iteration(engine, payloads)
        tracer = OBS.tracer
        if tracer is not None:
            for name in engine.fired:
                tracer.emit("rule.fired", "mve", rule=name)

        fault = None
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.fire("mve.follower")
        if fault is not None and fault.kind == "corrupt-record":
            expected = _corrupt_expected(expected, fault.param)

        if tracer is not None:
            tracer.emit("ring.replay", "mve", at=ready_at,
                        count=len(entries), occupancy=len(ring))
        start = max(follower.cpu.busy_until, ready_at)
        version = follower.server.version.name
        try:
            if fault is not None and fault.kind == "crash":
                raise ServerCrash("chaos: injected follower crash")
            try:
                replay_iteration(
                    follower.server, follower.gateway, expected, engine,
                    at=start, version=version,
                    leader_version=self.leader.server.version.name,
                    ring_history=lane.history, ring_pending=ring)
            finally:
                if tracer is not None:
                    # However the replay ended: a diverging or crashing
                    # one logs the calls it issued.
                    follower.gateway.trace.log_to(tracer, "replay", version)
        except DivergenceError as divergence:
            # Kept without its traceback: the frames' locals hold this
            # runtime, a cycle that would outlive the deployment.
            self.last_divergence = divergence.with_traceback(None)
            if tracer is not None:
                tracer.emit("divergence.check", "mve", at=start, ok=False,
                            records=len(entries), detail=str(divergence))
                tracer.emit("divergence.forensics", "mve", at=start,
                            bundle=divergence.forensics)
            spans = OBS.spans
            if spans is not None:
                spans.add("mve.divergence", "mve", start, start,
                          version=version)
            self.log(start, "divergence", str(divergence))
            self._terminate_lane(lane, start, reason="divergence")
            return start
        except ServerCrash as crash:
            follower.crashed = True
            self.log(start, "follower-crash", str(crash))
            self._terminate_lane(lane, start, reason="crash")
            return start
        trace = follower.gateway.trace
        done = follower.cpu.charge(start, self.profile.iteration_cost_ns(
            ExecutionMode.FOLLOWER, n_requests=trace.requests_handled,
            n_syscalls=len(trace.records), n_bytes=trace.bytes_transferred))
        if tracer is not None:
            tracer.emit("divergence.check", "mve", at=done, ok=True,
                        records=len(entries), detail="")
        return done

    # ------------------------------------------------------------------
    # Promotion, termination, failure policy
    # ------------------------------------------------------------------

    def _pair_lane(self, action: str) -> FollowerLane:
        """The lane of a leader/follower pair, for the operations that
        are only defined on one (``action`` names it in the error)."""
        if not self.lanes:
            raise SimulationError(f"no follower to {action}")
        if len(self.lanes) > 1:
            raise SimulationError(
                f"cannot {action} with {len(self.lanes)} followers "
                "attached: a pair operation")
        return self.lanes[0]

    def promote(self, now: int) -> int:
        """Swap leader and follower (the paper's t4 -> t5 transition).

        The leader registers a promotion event and stops serving; the
        follower drains the buffer, observes the event, and takes over.
        Returns t5, when the new leader resumes service.
        """
        self._pair_lane("promote")
        start = max(now, self.leader.cpu.busy_until)
        event = ControlEvent(ControlKind.PROMOTE, at=start,
                             version=self.leader.version_name)
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit("control.promote", "mve", at=start,
                        version=self.leader.version_name)
        self._publish([event], start, control=event)
        self.log(start, "demote-requested", event.describe())
        last = self.drain_follower()
        done = last if last is not None else start
        spans = OBS.spans
        if spans is not None:
            spans.add("mve.promote", "mve", start, done,
                      version=self.leader.version_name)
        recorder = self.recorder
        if recorder is not None:
            # self.leader is the post-swap leader; if the follower died
            # mid-drain the swap never happened and leadership is
            # unchanged — new_leader reflects either outcome.
            recorder.on_promote("promote", done, event.version,
                                self.leader.version_name)
        return done

    def _take_lead(self, process: ManagedProcess, at: int) -> None:
        """Make ``process`` the leader from ``at``.  It must poll the
        ready set ``pump`` reads, which a fork of the group's process
        always does."""
        if self.kernel.ready_set(self.domain,
                                 process.server.epoll_fd) is not self.ready:
            raise SimulationError(
                f"{process.version_name} polls another epoll instance")
        process.gateway.role = GatewayRole.DIRECT
        process.label = "leader"
        process.cpu.block_until(at)
        self.leader = process

    def _swap_roles(self, lane: FollowerLane, at: int) -> None:
        old_leader, new_leader = self.leader, lane.process
        old_leader.gateway.role = GatewayRole.REPLAY
        old_leader.label = "follower"
        self._take_lead(new_leader, at)
        lane.process = old_leader
        self.stage_direction = Direction.UPDATED_LEADER
        self.log(at, "promoted", new_leader.version_name)

    def finalize(self, now: int) -> int:
        """Terminate the follower and return to single-leader mode (t6)."""
        lane = self._pair_lane("finalize")
        self.drain_follower()
        if lane in self.lanes:
            at = max(now, lane.process.cpu.busy_until)
            self._terminate_lane(lane, at, reason="finalize")
            return at
        return now

    def terminate_follower(self, now: int, reason: str = "operator") -> int:
        """Explicitly drop the follower (operator-initiated rollback)."""
        lane = self._pair_lane("terminate")
        at = max(now, lane.process.cpu.busy_until)
        self._terminate_lane(lane, at, reason=reason)
        return at

    def _detach_lane(self, lane: FollowerLane) -> None:
        self.lanes.remove(lane)
        self.leader_mode = self._leader_mode()
        lane.ring.clear()
        lane.pending.clear()

    def _terminate_lane(self, lane: FollowerLane, at: int,
                        reason: str) -> None:
        """Drop ``lane``'s follower from the group; the rest carry on."""
        self._detach_lane(lane)
        spans = OBS.spans
        if spans is not None:
            spans.add("mve.demotion", "mve", at, at, reason=reason)
        self.log(at, "follower-terminated", reason)

    def _handle_leader_crash(self, at: int, trace: IterationTrace) -> int:
        """The paper's old-version-error recovery: promote a follower."""
        crashed_version = self.leader.version_name
        self.leader.crashed = True
        if not self.lanes:
            raise ServerCrash("leader crashed with no healthy follower",
                              pid=self.domain)
        # Let the followers catch up on everything before the crash.
        self.drain_follower()
        if not self.lanes:
            raise ServerCrash("follower died during crash recovery",
                              pid=self.domain)
        lane = self.lanes[0]  # the first healthy survivor takes over
        survivor = lane.process
        at = max(at, survivor.cpu.busy_until)
        # Re-deliver the input the crashed leader had consumed so the
        # promoted process can serve it.
        self._redeliver_reads(trace)
        self._take_lead(survivor, at)
        self._detach_lane(lane)
        spans = OBS.spans
        if spans is not None:
            spans.add("mve.crash-promote", "mve", at, at,
                      version=survivor.version_name)
        self.log(at, "follower-promoted-after-crash")
        recorder = self.recorder
        if recorder is not None:
            recorder.on_promote("crash-promote", at, crashed_version,
                                survivor.version_name)
        return at

    def _redeliver_reads(self, trace: IterationTrace) -> None:
        for record in reversed(trace.records):
            if record.name is Sys.READ and record.fd >= 0 and record.data:
                if self.kernel.is_open(self.domain, record.fd):
                    self.kernel.endpoint(self.domain,
                                         record.fd).unread(record.data)
