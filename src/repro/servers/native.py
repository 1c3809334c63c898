"""Native (and Kitsune-only) server execution — no MVE monitor.

This is the baseline the paper's Table 2 and Figure 7 compare against:
the server runs straight against the kernel; a Kitsune build adds only
update-point checks, and a standalone Kitsune update pauses service for
quiesce + state-transformation time.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.dsu.kitsune import Kitsune, UpdateAttempt
from repro.dsu.version import ServerVersion
from repro.errors import ServerCrash
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.net.kernel import VirtualKernel
from repro.sim.process import CpuAccount
from repro.sites import OBS
from repro.syscalls.costs import AppProfile, ExecutionMode, QUIESCE_NS


class NativeRuntime:
    """Runs one server directly against the kernel."""

    def __init__(self, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *, with_kitsune: bool = False) -> None:
        self.kernel = kernel
        self.server = server
        self.profile = profile
        self.with_kitsune = with_kitsune
        self.cpu = CpuAccount("native")
        self.gateway = SyscallGateway(kernel, server.domain,
                                      GatewayRole.DIRECT)
        server.bind_gateway(self.gateway)
        self.crashed: Optional[ServerCrash] = None
        #: Requests served, over every iteration.
        self.requests_served = 0

    def mode(self) -> ExecutionMode:
        """Cost-model mode: Native, or Kitsune when DSU-enabled."""
        return (ExecutionMode.KITSUNE if self.with_kitsune
                else ExecutionMode.NATIVE)

    def pump(self, now: int) -> int:
        """Run iterations until no input is ready; returns finish time.

        A server crash marks the runtime as crashed and re-raises: with
        no MVE monitor there is nothing to fail over to.
        """
        if self.crashed is not None:
            raise ServerCrash(f"server is down: {self.crashed}")
        if now > OBS.vnow:
            OBS.vnow = now
        t = max(now, self.cpu.busy_until)
        while True:
            ready = self.kernel.epoll_wait(self.server.domain,
                                           self.server.epoll_fd)
            if not ready:
                return t
            self.gateway.begin_iteration()
            try:
                self.server.run_iteration(self.gateway)
            except ServerCrash as crash:
                self.crashed = crash
                raise
            trace = self.gateway.trace
            cost = self.profile.iteration_cost_ns(
                self.mode(), n_requests=trace.requests_handled,
                n_syscalls=len(trace.records),
                n_bytes=trace.bytes_transferred)
            t = self.cpu.charge(t, cost)
            self.requests_served += trace.requests_handled

    def apply_update(self, kitsune: Kitsune, new_version: ServerVersion,
                     now: int) -> UpdateAttempt:
        """Standalone Kitsune update: service pauses for the duration.

        The pause (quiesce + transform) blocks the CPU, so requests that
        arrive during the update queue behind it — this is what Figure 7
        measures as ~5 s of max latency for a 1M-entry Redis heap.
        """
        if not self.with_kitsune:
            raise ServerCrash("cannot dynamically update a non-DSU binary")
        start = max(now, self.cpu.busy_until)
        attempt = kitsune.apply_update(
            self.server.program, new_version,
            xform_entry_ns=self.profile.xform_entry_ns or 0, at=start)
        if attempt.ok:
            self.server.apply_version(self.server.program.version,
                                      self.server.program.heap)
        self.cpu.block_until(start + attempt.quiesce_ns + attempt.xform_ns
                             + QUIESCE_NS)
        return attempt
