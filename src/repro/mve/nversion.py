"""N-version execution: one leader, many followers.

Varan is an *N-version* execution framework: beyond Mvedsua's
leader + single-follower arrangement, it can shepherd several diversified
or differently-versioned replicas at once — "a bug that affects only some
of the processes is tolerated by the others which continue execution".

This runtime generalises the two-process :class:`~repro.mve.varan
.VaranRuntime`: each follower consumes the leader's record stream through
its own bounded queue (the shared ring buffer's slot is freed when the
*slowest* follower has consumed it, which is what bounds the leader).
A divergence or crash terminates only the offending follower; a leader
crash promotes the most caught-up healthy follower.

Mvedsua itself only ever needs two versions, so this module is an
extension of the substrate rather than part of the paper's evaluation;
the cost model reuses the calibrated leader/follower modes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import DivergenceError, ServerCrash, SimulationError
from repro.mve.dsl.rules import Direction, RuleSet
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.mve.varan import ManagedProcess, RuntimeEvent
from repro.net.kernel import VirtualKernel
from repro.sim.process import CpuAccount
from repro.syscalls.costs import AppProfile, ExecutionMode, FORK_PAUSE_NS
from repro.syscalls.model import SyscallRecord


@dataclass
class _FollowerState:
    """One follower plus its private consumption queue."""

    process: ManagedProcess
    #: (records, produced_at, requests) per pending leader iteration.
    pending: Deque[Tuple[List[SyscallRecord], int, int]] = field(
        default_factory=deque)
    pending_records: int = 0
    rules: RuleSet = field(default_factory=RuleSet)
    alive: bool = True


class NVersionRuntime:
    """Leader + N followers over one kernel domain."""

    def __init__(self, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *,
                 queue_capacity: int = 4096) -> None:
        self.kernel = kernel
        self.profile = profile
        self.queue_capacity = queue_capacity
        self.domain = server.domain
        gateway = SyscallGateway(kernel, self.domain, GatewayRole.DIRECT)
        server.bind_gateway(gateway)
        self.leader = ManagedProcess(server, gateway, CpuAccount("leader"),
                                     "leader")
        self.followers: List[_FollowerState] = []
        self.events: List[RuntimeEvent] = []
        self.divergences: List[str] = []

    # ------------------------------------------------------------------

    def log(self, at: int, kind: str, detail: str = "") -> None:
        self.events.append(RuntimeEvent(at, kind, detail))

    def event_kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def alive_followers(self) -> List[_FollowerState]:
        return [f for f in self.followers if f.alive]

    @property
    def group_size(self) -> int:
        """Processes currently executing (leader + live followers)."""
        return 1 + len(self.alive_followers())

    def add_follower(self, now: int, *, server: Optional[Any] = None,
                     rules: Optional[RuleSet] = None) -> ManagedProcess:
        """Fork one more follower (identical copy unless given)."""
        fork_done = self.leader.cpu.charge(now, FORK_PAUSE_NS)
        forked = server if server is not None else self.leader.server.fork()
        gateway = SyscallGateway(self.kernel, self.domain,
                                 GatewayRole.REPLAY)
        forked.bind_gateway(gateway)
        label = f"follower-{len(self.followers)}"
        process = ManagedProcess(forked, gateway,
                                 self.leader.cpu.fork(label, at=fork_done),
                                 label)
        self.followers.append(_FollowerState(
            process=process, rules=rules or RuleSet()))
        self.log(fork_done, "fork", forked.version.name)
        return process

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def pump(self, now: int) -> int:
        """Run leader iterations until no input is ready."""
        t = max(now, self.leader.cpu.busy_until)
        while True:
            if self.leader.crashed:
                raise ServerCrash("leader crashed with no survivor")
            ready = self.kernel.epoll_wait(self.domain,
                                           self.leader.server.epoll_fd)
            if not ready:
                return t
            t = self._run_leader_iteration(t)

    def _run_leader_iteration(self, start: int) -> int:
        gateway = self.leader.gateway
        gateway.begin_iteration()
        crash: Optional[ServerCrash] = None
        try:
            self.leader.server.run_iteration(gateway)
        except ServerCrash as exc:
            crash = exc
        trace = gateway.trace
        mode = (ExecutionMode.VARAN_LEADER if self.alive_followers()
                else ExecutionMode.VARAN_SINGLE)
        completion = self.leader.cpu.charge(start,
                                            self._cost(trace, mode))
        if crash is not None:
            self.log(completion, "leader-crash", str(crash))
            return self._promote_survivor(completion, trace)
        completion = self._broadcast(trace, completion)
        self.leader.cpu.block_until(completion)
        return completion

    def _cost(self, trace, mode: ExecutionMode) -> int:
        return self.profile.iteration_cost_ns(
            mode, n_requests=trace.requests_handled,
            n_syscalls=len(trace.records),
            n_bytes=trace.bytes_transferred)

    def _broadcast(self, trace, at: int) -> int:
        """Hand the iteration to every live follower's queue.

        The leader blocks until the slowest follower frees enough queue
        space — the N-version generalisation of ring back-pressure.
        """
        t = at
        # The gateway's trace list is abandoned at begin_iteration(), so
        # sharing it across follower queues is safe — no defensive copy.
        records = trace.records
        for follower in self.alive_followers():
            while (follower.pending_records + len(records)
                   > self.queue_capacity):
                freed_at = self._replay_one(follower)
                if freed_at is None:
                    raise SimulationError(
                        "follower queue cannot hold one iteration")
                t = max(t, freed_at)
            follower.pending.append((records, t, trace.requests_handled))
            follower.pending_records += len(records)
        return t

    # ------------------------------------------------------------------
    # Follower replay
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Let every live follower fully catch up."""
        for follower in self.alive_followers():
            while follower.pending and follower.alive:
                self._replay_one(follower)

    def _replay_one(self, follower: _FollowerState) -> Optional[int]:
        if not follower.pending:
            return None
        records, produced_at, requests = follower.pending.popleft()
        follower.pending_records -= len(records)
        expected = self._rewrite(follower, records)
        process = follower.process
        gateway = process.gateway
        gateway.begin_iteration(expected)
        try:
            process.server.run_iteration(gateway)
            gateway.finish_iteration()
        except DivergenceError as divergence:
            at = max(process.cpu.busy_until, produced_at)
            self.divergences.append(str(divergence))
            self.log(at, "divergence", f"{process.label}: {divergence}")
            self._terminate(follower, at)
            return at
        except ServerCrash as crash:
            process.crashed = True
            at = max(process.cpu.busy_until, produced_at)
            self.log(at, "follower-crash", f"{process.label}: {crash}")
            self._terminate(follower, at)
            return at
        cost = self._cost(gateway.trace, ExecutionMode.FOLLOWER)
        start = max(process.cpu.busy_until, produced_at)
        return process.cpu.charge(start, cost)

    def _rewrite(self, follower: _FollowerState,
                 records: List[SyscallRecord]) -> List[SyscallRecord]:
        engine = follower.rules.engine_for_stage(Direction.OUTDATED_LEADER)
        for record in records:
            engine.offer(record)
        engine.flush()
        return engine.take_ready()

    def _terminate(self, follower: _FollowerState, at: int) -> None:
        follower.alive = False
        follower.pending.clear()
        follower.pending_records = 0
        self.log(at, "follower-terminated", follower.process.label)

    # ------------------------------------------------------------------
    # Leader fail-over
    # ------------------------------------------------------------------

    def _promote_survivor(self, at: int, trace) -> int:
        self.leader.crashed = True
        candidates = self.alive_followers()
        if not candidates:
            raise ServerCrash("leader crashed with no healthy follower",
                              pid=self.domain)
        # Drain everyone, then promote the first healthy survivor.
        self.drain()
        candidates = self.alive_followers()
        if not candidates:
            raise ServerCrash("all followers died during fail-over",
                              pid=self.domain)
        survivor = candidates[0]
        survivor.alive = False  # leaves the follower pool
        self.followers.remove(survivor)
        process = survivor.process
        at = max(at, process.cpu.busy_until)
        self._redeliver_reads(trace)
        process.gateway.role = GatewayRole.DIRECT
        process.label = "leader"
        process.cpu.block_until(at)
        self.leader = process
        self.log(at, "follower-promoted-after-crash", process.version_name)
        return at

    def _redeliver_reads(self, trace) -> None:
        from repro.net.sockets import Endpoint
        from repro.syscalls.model import Sys
        for record in reversed(trace.records):
            if record.name is Sys.READ and record.fd >= 0 and record.data:
                if self.kernel.is_open(self.domain, record.fd):
                    endpoint = self.kernel._domain(
                        self.domain).lookup(record.fd)
                    if isinstance(endpoint, Endpoint):
                        endpoint.unread(record.data)
