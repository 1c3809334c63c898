"""The MVE runtime (Varan analogue).

One :class:`VaranRuntime` supervises an MVE group: a leader executing
against the virtual kernel and (optionally) one follower replaying the
leader's syscall stream through the ring buffer and rewrite rules.

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
* **failure policy** — terminate the diverging or crashed process and
  continue with the survivor as sole leader (the paper's recovery story
  for both new-version and old-version errors).

Virtual-time accounting: the leader and follower own separate CPUs.
Leader iterations charge leader time (with the mode's overhead factors);
records are pushed at leader completion times; follower replay charges
follower time, starting no earlier than the records' produce times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import DivergenceError, ServerCrash, SimulationError
from repro.mve.dsl.rules import Direction, RuleSet
from repro.mve.events import ControlEvent, ControlKind
from repro.mve.gateway import GatewayRole, IterationTrace, SyscallGateway
from repro.mve.ring_buffer import BufferFull, RingBuffer
from repro.obs.forensics import ForensicsBundle, build_divergence_bundle
from repro.net.kernel import VirtualKernel
from repro.replay.recorder import current_recorder
from repro.net.sockets import Endpoint
from repro.sim.process import CpuAccount
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


@dataclass
class IterationDescriptor:
    """Bookkeeping for one leader iteration awaiting follower replay."""

    n_records: int
    requests: int
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
        #: ``ring`` substitutes the buffer wholesale (a
        #: :class:`~repro.mve.distring.DistributedRing` for cross-node
        #: pairs); by default local pairs get the plain in-memory ring
        #: and every code path below stays exactly as before.
        self.ring = ring if ring is not None else RingBuffer(ring_capacity)
        #: True when the ring is link-backed (duck-typed on the wire
        #: API so this module never imports distring).
        self._ring_distributed = hasattr(self.ring, "next_free_at")
        self.rules = rules if rules is not None else RuleSet()
        self.with_kitsune = with_kitsune
        self.domain = server.domain
        gateway = SyscallGateway(kernel, self.domain, GatewayRole.DIRECT)
        server.bind_gateway(gateway)
        self.leader = ManagedProcess(server, gateway, CpuAccount("leader"),
                                     "leader")
        self.follower: Optional[ManagedProcess] = None
        #: Which stage's rules apply to follower replay.
        self.stage_direction = Direction.OUTDATED_LEADER
        #: True once the *new* version is the leader (post-promotion).
        self.leader_is_updated = False
        self._iterations: Deque[IterationDescriptor] = deque()
        self.events: List[RuntimeEvent] = []
        self.rules_fired: List[str] = []
        self.last_divergence: Optional[DivergenceError] = None
        #: Optional callback invoked with every RuntimeEvent as it is
        #: logged; the Mvedsua orchestrator subscribes to track stages.
        self.observer = None
        #: (completion_time, requests_handled) per leader iteration; the
        #: workload layer samples this for latency measurements.
        self.completions: List[Tuple[int, int]] = []
        #: Cumulative syscall records the leader emitted (perf telemetry).
        self.total_syscalls = 0
        #: Times a full ring blocked the leader (always counted — the
        #: perf harness reports it next to ``ring.high_watermark``).
        self.ring_stalls = 0
        #: The rule engine of the most recently replayed iteration,
        #: kept for divergence forensics (window state, fired rules).
        self._last_engine = None
        #: Forensics bundle for the most recent divergence, if any.
        self.last_forensics: Optional[ForensicsBundle] = None
        #: Stream recorder (see :mod:`repro.replay`): the active one if
        #: this runtime won the claim, else None — scenarios that build
        #: several MVE groups record only the first, and the disabled
        #: path stays one attribute load + ``is None`` per iteration.
        recorder = current_recorder()
        self.recorder = recorder if recorder is not None \
            and recorder.claim(self) else None

    @property
    def tracer(self):
        """The attached tracer, if any (lives on the shared kernel)."""
        return self.kernel.tracer

    @property
    def chaos(self):
        """The active chaos injector, if any (lives on the shared kernel)."""
        return self.kernel.chaos

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def in_mve_mode(self) -> bool:
        """True while a follower is attached (leader-follower mode)."""
        return self.follower is not None

    def leader_mode(self) -> ExecutionMode:
        """Cost-model mode for leader execution right now."""
        if self.in_mve_mode:
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
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.emit(f"mve.{kind}", "mve", at=at, detail=detail)

    def event_kinds(self) -> List[str]:
        """Just the kinds, in order — convenient for assertions."""
        return [event.kind for event in self.events]

    def events_since(self, index: int) -> List[RuntimeEvent]:
        """Events appended after position ``index``.

        Orchestrators snapshot ``len(events)`` before a lifecycle step
        and read back exactly what the step produced — the fleet
        orchestrator uses this to attribute a demotion to its cause
        (divergence vs crash) without re-scanning the whole log.
        """
        return self.events[index:]

    # ------------------------------------------------------------------
    # Leader serving
    # ------------------------------------------------------------------

    def pump(self, now: int) -> int:
        """Run leader iterations until no input is ready.

        Returns the virtual time at which the leader finished.  Crashes
        and divergences are handled by the failure policy; after a crash
        the surviving process carries on within the same call.
        """
        chaos = self.kernel.chaos
        if chaos is not None:
            chaos.advance(now)
        t = max(now, self.leader.cpu.busy_until)
        while True:
            if self.leader.crashed:
                raise ServerCrash("leader crashed with no survivor")
            ready = self.kernel.epoll_wait(self.domain,
                                           self.leader.server.epoll_fd)
            if not ready:
                break
            t = self._run_leader_iteration(max(now, t))
        return t

    def _run_leader_iteration(self, start: int) -> int:
        leader = self.leader
        gateway = leader.gateway
        gateway.begin_iteration()
        crash: Optional[ServerCrash] = None
        chaos = self.kernel.chaos
        if chaos is not None and chaos.fire("mve.leader") is not None:
            # Injected leader kill: the process dies before consuming
            # any input, so a promoted survivor finds it still buffered.
            crash = ServerCrash("chaos: injected leader crash")
        if crash is None:
            try:
                leader.server.run_iteration(gateway)
            except ServerCrash as exc:
                crash = exc
        trace = gateway.trace
        self.total_syscalls += len(trace.records)
        cost = self.iteration_cost(trace, self.leader_mode())
        completion = leader.cpu.charge(start, cost)
        if crash is not None:
            self.log(completion, "leader-crash", str(crash))
            return self._handle_leader_crash(completion, trace)
        if self.in_mve_mode:
            completion = self._publish_iteration(trace, completion)
            leader.cpu.block_until(completion)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_iteration(completion, leader.version_name,
                                  self.in_mve_mode, trace.records)
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.on_stream_record(completion, len(trace.records))
        self.completions.append((completion, trace.requests_handled))
        return completion

    def _publish_iteration(self, trace: IterationTrace, at: int) -> int:
        """Push an iteration's records onto the ring buffer.

        Batched: each burst pushes as many records as the ring has free
        slots, then (if records remain) replays one follower iteration
        to free space.  Virtual-time semantics match the per-record
        formulation exactly — a burst's records all carry the produce
        time the per-record loop would have stamped them with, and
        back-pressure still advances ``t`` to the replay completion.
        """
        t = at
        records = trace.records
        pushed, total = 0, len(records)
        tracer = self.kernel.tracer
        chaos = self.kernel.chaos
        while pushed < total:
            if self.follower is None:
                return t  # follower died while we were blocked
            if self._ring_distributed:
                self.ring.advance(t)
                if self._check_ring_partition(t):
                    return t
            free = self.ring.free_slots()
            if free > 0 and chaos is not None and self._iterations \
                    and chaos.fire("mve.ring") is not None:
                # Injected stall: pretend the ring is full so the leader
                # blocks on one follower replay (needs a queued
                # iteration to replay, hence the _iterations guard).
                free = 0
            if free == 0:
                self.ring_stalls += 1
                if tracer is not None:
                    tracer.on_ring_stall(t, self.ring.capacity)
                freed_at = self._replay_one()
                if freed_at is None and self._ring_distributed:
                    # Nothing left to replay: the stall is the in-flight
                    # window, freed when the earliest ack lands.
                    freed_at = self.ring.next_free_at()
                if freed_at is None:
                    raise SimulationError(
                        "ring buffer cannot hold one leader iteration "
                        f"(capacity {self.ring.capacity})")
                if tracer is not None and tracer.spans is not None:
                    tracer.spans.add("mve.ring-stall", "mve", t,
                                     max(t, freed_at),
                                     capacity=self.ring.capacity)
                t = max(t, freed_at)
                continue
            take = min(free, total - pushed)
            self.ring.push_many(records[pushed:pushed + take], t)
            pushed += take
            if tracer is not None:
                tracer.on_ring_publish(t, take, len(self.ring),
                                       self.ring.high_watermark)
        if self._ring_distributed and self._check_ring_partition(t):
            return t
        if self.follower is not None:
            self._iterations.append(IterationDescriptor(
                n_records=total,
                requests=trace.requests_handled))
        return t

    def _push_with_backpressure(self, payload, t: int) -> int:
        while True:
            if self.follower is None:
                return t
            if self._ring_distributed:
                self.ring.advance(t)
                if self._check_ring_partition(t):
                    return t
            try:
                self.ring.push(payload, t)
                return t
            except BufferFull:
                self.ring_stalls += 1
                tracer = self.kernel.tracer
                if tracer is not None:
                    tracer.on_ring_stall(t, self.ring.capacity)
                freed_at = self._replay_one()
                if freed_at is None and self._ring_distributed:
                    freed_at = self.ring.next_free_at()
                if freed_at is None:
                    raise SimulationError(
                        "ring buffer cannot hold one leader iteration "
                        f"(capacity {self.ring.capacity})")
                if tracer is not None and tracer.spans is not None:
                    tracer.spans.add("mve.ring-stall", "mve", t,
                                     max(t, freed_at),
                                     capacity=self.ring.capacity)
                t = max(t, freed_at)

    def _check_ring_partition(self, t: int) -> bool:
        """Demote the follower when a distributed ring's partition
        budget is exhausted; True when the demotion ran.  Only called
        on link-backed rings (``_ring_distributed``)."""
        ring = self.ring
        if not ring.partition_timed_out or self.follower is None:
            return False
        at = max(t, ring.partition_timed_out_at or t)
        self.log(at, "ring-partition",
                 f"cumulative partition delay {ring.partition_delay_ns}ns "
                 f"exceeded the link budget "
                 f"({ring.link.demote_timeout_ns}ns)")
        self._terminate_process(self.follower, at,
                                reason="ring-partition-timeout")
        return True

    def iteration_cost(self, trace: IterationTrace,
                       mode: ExecutionMode) -> int:
        """Virtual CPU cost of one iteration in ``mode``."""
        return self.profile.iteration_cost_ns(
            mode, n_requests=trace.requests_handled,
            n_syscalls=len(trace.records),
            n_bytes=trace.bytes_transferred)

    # ------------------------------------------------------------------
    # Fork and follower replay
    # ------------------------------------------------------------------

    def fork_follower(self, now: int, *,
                      server: Optional[Any] = None) -> ManagedProcess:
        """Fork the leader into a follower at quiescence.

        ``server`` overrides the forked copy (used by Mvedsua, which
        forks and then dynamically updates the child); by default the
        follower is an identical copy — plain Varan's N-version mode.

        The leader pays a copy-on-write fork pause.  Returns the new
        follower; the follower's CPU becomes available at fork time.
        """
        if self.follower is not None:
            raise SimulationError("an MVE follower is already attached")
        fork_done = self.leader.cpu.charge(now, FORK_PAUSE_NS)
        forked = server if server is not None else self.leader.server.fork()
        gateway = SyscallGateway(self.kernel, self.domain, GatewayRole.REPLAY)
        forked.bind_gateway(gateway)
        cpu = self.leader.cpu.fork("follower", at=fork_done)
        self.follower = ManagedProcess(forked, gateway, cpu, "follower")
        if self._ring_distributed:
            # A fresh follower rejoins the replicated stream from the
            # fork point: flush the wire and reset partition accounting.
            self.ring.resync(fork_done)
        self.log(fork_done, "fork", forked.version.name)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_fork(fork_done, forked.version.name)
        return self.follower

    def drain_follower(self, *, max_iterations: Optional[int] = None) -> Optional[int]:
        """Replay queued iterations on the follower.

        Returns the follower's completion time of the last replayed
        iteration, or None when nothing was replayed.
        """
        last = None
        replayed = 0
        while self._iterations and self.follower is not None:
            if max_iterations is not None and replayed >= max_iterations:
                break
            last = self._replay_one()
            replayed += 1
        return last

    def _replay_one(self) -> Optional[int]:
        """Replay one queued iteration; returns its completion time."""
        if not self._iterations or self.follower is None:
            return None
        descriptor = self._iterations.popleft()
        if descriptor.control is not None:
            entry = self.ring.pop()
            swap_at = max(self.follower.cpu.busy_until, entry.produced_at)
            if descriptor.control.kind is ControlKind.PROMOTE:
                self._swap_roles(swap_at)
            return swap_at

        entries = self.ring.pop_many(descriptor.n_records)
        ready_at = max((entry.produced_at for entry in entries), default=0)
        expected = self._rewrite(entry.payload for entry in entries)

        fault = None
        chaos = self.kernel.chaos
        if chaos is not None:
            chaos.advance(ready_at)
            fault = chaos.fire("mve.follower")
        if fault is not None and fault.kind == "corrupt-record":
            expected = _corrupt_expected(expected, fault.param)

        follower = self.follower
        gateway = follower.gateway
        gateway.begin_iteration(expected)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.advance(ready_at)
            tracer.on_ring_replay(ready_at, len(entries), len(self.ring),
                                  entries)
        try:
            if fault is not None and fault.kind == "crash":
                raise ServerCrash("chaos: injected follower crash")
            follower.server.run_iteration(gateway)
            gateway.finish_iteration()
        except DivergenceError as divergence:
            at = max(follower.cpu.busy_until, ready_at)
            divergence.annotate(at=at, version=follower.version_name)
            self.last_divergence = divergence
            self.last_forensics = self._capture_forensics(
                at, divergence, entries, expected, follower)
            if tracer is not None:
                tracer.on_divergence_check(at, False, len(entries),
                                           detail=str(divergence))
                tracer.on_forensics(self.last_forensics)
                if tracer.spans is not None:
                    tracer.spans.add("mve.divergence", "mve", at, at,
                                     version=follower.version_name)
            self.log(at, "divergence", str(divergence))
            self._terminate_process(follower, at, reason="divergence")
            return at
        except ServerCrash as crash:
            follower.crashed = True
            at = max(follower.cpu.busy_until, ready_at)
            self.log(at, "follower-crash", str(crash))
            self._terminate_process(follower, at, reason="crash")
            return at
        cost = self.iteration_cost(gateway.trace, ExecutionMode.FOLLOWER)
        start = max(follower.cpu.busy_until, ready_at)
        done = follower.cpu.charge(start, cost)
        if tracer is not None:
            tracer.on_divergence_check(done, True, len(entries))
        return done

    def _rewrite(self, payloads) -> List[SyscallRecord]:
        """Run one iteration's leader records through the stage rules."""
        engine = self.rules.engine_for_stage(self.stage_direction)
        n_in = 0
        for payload in payloads:
            engine.offer(payload)
            n_in += 1
        engine.flush()
        self.rules_fired.extend(engine.fired)
        self._last_engine = engine
        expected = engine.take_ready()
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.on_rules_applied(n_in, len(expected), engine.fired)
        return expected

    def _capture_forensics(self, at: int, divergence: DivergenceError,
                           entries, expected, follower) -> ForensicsBundle:
        """Bundle the monitor's state at a divergence (see
        :mod:`repro.obs.forensics`)."""
        tracer = self.kernel.tracer
        history = tracer.ring_history if tracer is not None else entries
        engine = self._last_engine
        return build_divergence_bundle(
            at=at,
            version=follower.version_name,
            leader_version=self.leader.version_name,
            error=divergence,
            ring_history=history,
            ring_pending=[self.ring.peek(i) for i in range(len(self.ring))],
            expected_records=expected,
            issued_records=follower.gateway.trace.records,
            rule_window=engine.pending_window() if engine is not None else 0,
            rules_fired=list(engine.fired) if engine is not None else [],
        )

    # ------------------------------------------------------------------
    # Promotion, termination, failure policy
    # ------------------------------------------------------------------

    def promote(self, now: int) -> int:
        """Swap leader and follower (the paper's t4 -> t5 transition).

        The leader registers a promotion event and stops serving; the
        follower drains the buffer, observes the event, and takes over.
        Returns t5, when the new leader resumes service.
        """
        if self.follower is None:
            raise SimulationError("no follower to promote")
        start = max(now, self.leader.cpu.busy_until)
        event = ControlEvent(ControlKind.PROMOTE, at=start,
                             version=self.leader.version_name)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.on_control("promote", start, self.leader.version_name)
        self._push_with_backpressure(event, start)
        self._iterations.append(IterationDescriptor(
            n_records=1, requests=0, control=event))
        self.log(start, "demote-requested", event.describe())
        last = None
        while self._iterations and self.follower is not None:
            last = self._replay_one()
        done = last if last is not None else start
        if tracer is not None and tracer.spans is not None:
            tracer.spans.add("mve.promote", "mve", start, done,
                             version=self.leader.version_name)
        recorder = self.recorder
        if recorder is not None:
            # self.leader is the post-swap leader; if the follower died
            # mid-drain the swap never happened and leadership is
            # unchanged — new_leader reflects either outcome.
            recorder.on_control("promote", done, event.version,
                                self.leader.version_name)
        return done

    def _swap_roles(self, at: int) -> None:
        old_leader, new_leader = self.leader, self.follower
        assert new_leader is not None
        old_leader.gateway.role = GatewayRole.REPLAY
        old_leader.label = "follower"
        new_leader.gateway.role = GatewayRole.DIRECT
        new_leader.label = "leader"
        new_leader.cpu.block_until(at)
        self.leader, self.follower = new_leader, old_leader
        self.stage_direction = Direction.UPDATED_LEADER
        self.leader_is_updated = True
        self.log(at, "promoted", new_leader.version_name)

    def finalize(self, now: int) -> int:
        """Terminate the follower and return to single-leader mode (t6)."""
        if self.follower is None:
            raise SimulationError("no follower to finalize")
        self.drain_follower()
        if self.follower is not None:
            at = max(now, self.follower.cpu.busy_until)
            self._terminate_process(self.follower, at, reason="finalize")
            return at
        return now

    def terminate_follower(self, now: int, reason: str = "operator") -> int:
        """Explicitly drop the follower (operator-initiated rollback)."""
        if self.follower is None:
            raise SimulationError("no follower to terminate")
        at = max(now, self.follower.cpu.busy_until)
        self._terminate_process(self.follower, at, reason=reason)
        return at

    def _terminate_process(self, process: ManagedProcess, at: int,
                           reason: str) -> None:
        """Drop ``process`` from the group; survivor becomes sole leader."""
        if process is self.follower:
            self.follower = None
            self.ring.clear()
            self._iterations.clear()
            tracer = self.kernel.tracer
            if tracer is not None and tracer.spans is not None:
                tracer.spans.add("mve.demotion", "mve", at, at,
                                 reason=reason)
            self.log(at, "follower-terminated", reason)
        else:  # pragma: no cover - leader termination goes via crash path
            raise SimulationError("cannot terminate the leader directly")

    def _handle_leader_crash(self, at: int, trace: IterationTrace) -> int:
        """The paper's old-version-error recovery: promote the follower."""
        crashed_version = self.leader.version_name
        self.leader.crashed = True
        if self.follower is None or self.follower.crashed:
            raise ServerCrash("leader crashed with no healthy follower",
                              pid=self.domain)
        # Let the follower catch up on everything before the crash.
        self.drain_follower()
        if self.follower is None:
            raise ServerCrash("follower died during crash recovery",
                              pid=self.domain)
        survivor = self.follower
        at = max(at, survivor.cpu.busy_until)
        # Re-deliver the input the crashed leader had consumed so the
        # promoted process can serve it.
        self._redeliver_reads(trace)
        survivor.gateway.role = GatewayRole.DIRECT
        survivor.label = "leader"
        survivor.cpu.block_until(at)
        self.leader = survivor
        self.follower = None
        self.ring.clear()
        self._iterations.clear()
        self.leader_is_updated = True
        tracer = self.kernel.tracer
        if tracer is not None and tracer.spans is not None:
            tracer.spans.add("mve.crash-promote", "mve", at, at,
                             version=survivor.version_name)
        self.log(at, "follower-promoted-after-crash")
        recorder = self.recorder
        if recorder is not None:
            recorder.on_control("crash-promote", at, crashed_version,
                                survivor.version_name)
        return at

    def _redeliver_reads(self, trace: IterationTrace) -> None:
        for record in reversed(trace.records):
            if record.name is Sys.READ and record.fd >= 0 and record.data:
                if self.kernel.is_open(self.domain, record.fd):
                    domain_obj = self.kernel._domain(self.domain)
                    endpoint = domain_obj.lookup(record.fd)
                    if isinstance(endpoint, Endpoint):
                        endpoint.unread(record.data)
