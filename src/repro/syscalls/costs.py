"""Calibrated virtual-time cost model.

Performance experiments run in virtual time: every server iteration charges

    compute_ns * mode.compute_factor
  + n_syscalls * syscall_ns * mode.syscall_factor
  + n_bytes    * byte_ns    * mode.byte_factor

against the owning CPU.  The per-application base costs below are
calibrated so that the *native* row of the paper's Table 2 comes out right
given each server's actual syscall count per operation, and the per-mode
factors are solved from its Kitsune, Varan-1 and Varan-2 rows; the update
constants are fitted to Figure 7's native / Kitsune / 2^24 magnitudes and
the 6.2 s follower-side update.  The Mvedsua-1/-2 rows, Figure 6, every
ordering of Figure 7 and the fault-tolerance outcomes are then *produced*
by the simulation; ``repro.bench.claims`` marks each number either way.

Calibration targets (Table 2, "Native" row):

    Memcached      249 k ops/s across 4 worker threads  (~16.1 us/op/thread)
    Redis           73 k ops/s single-threaded          (~13.7 us/op)
    Vsftpd small  2667 ops/s                            (~375 us/op)
    Vsftpd large   118 ops/s (10 MB file per op)        (~8.47 ms/op)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class ExecutionMode(enum.Enum):
    """The six configurations evaluated in Table 2, plus follower replay.

    Each member is declared as ``(label, uses_ring_buffer,
    includes_kitsune, includes_varan)``; ``value`` is the label, the
    three predicates are plain attributes resolved at class creation.
    """

    NATIVE = ("native", False, False, False)
    KITSUNE = ("kitsune", False, True, False)
    VARAN_SINGLE = ("varan-1", False, False, True)
    MVEDSUA_SINGLE = ("mvedsua-1", False, True, True)
    VARAN_LEADER = ("varan-2", True, False, True)
    MVEDSUA_LEADER = ("mvedsua-2", True, True, True)
    FOLLOWER = ("follower", False, False, True)

    def __new__(cls, label: str, uses_ring_buffer: bool,
                includes_kitsune: bool, includes_varan: bool):
        member = object.__new__(cls)
        member._value_ = label
        #: True when syscalls are registered on the shared ring buffer.
        member.uses_ring_buffer = uses_ring_buffer
        #: True when the binary carries Kitsune update-point checks.
        member.includes_kitsune = includes_kitsune
        #: True when syscalls are intercepted by the MVE monitor.
        member.includes_varan = includes_varan
        return member


@dataclass(frozen=True)
class ModeFactors:
    """Multiplicative overheads applied by one execution mode."""

    compute_factor: float = 1.0
    syscall_factor: float = 1.0
    byte_factor: float = 1.0


#: Varan intercepts syscalls via binary rewriting even with no follower;
#: the interception stub costs a fraction of the syscall itself.
_VARAN_SINGLE_SYSCALL = 1.25

#: In leader mode every syscall is additionally serialised onto the ring
#: buffer and made visible to the follower.
_VARAN_LEADER_SYSCALL = 2.80

#: Large payloads are copied into ring-buffer entries in leader mode.
_VARAN_LEADER_BYTE = 1.18

#: Followers replay syscalls from the buffer instead of entering the
#: kernel; replay is cheaper than a real syscall, which is why the ring
#: drains roughly twice as fast as it fills (paper footnote 11).
_FOLLOWER_SYSCALL = 0.60


@dataclass(frozen=True)
class AppProfile:
    """Per-application calibrated costs (all times in virtual ns)."""

    name: str
    compute_ns: int
    syscall_ns: int
    byte_ns: float = 0.0
    #: Kitsune's update-point checks live in application code, so their
    #: relative cost is application specific (Table 2's Kitsune row).
    kitsune_compute_factor: float = 1.0
    #: Per-application Varan interception/recording factors.  Varan's
    #: overhead depends on each app's syscall shape (payload sizes,
    #: blocking pattern), so these are calibrated per app against the
    #: paper's Table 2 *throughput drops*; None falls back to the global
    #: defaults above.
    varan_single_syscall_factor: Optional[float] = None
    varan_leader_syscall_factor: Optional[float] = None
    varan_leader_byte_factor: Optional[float] = None
    #: Cost to transform one heap entry during a dynamic update (drives
    #: Figure 7); None for servers never updated under load in the paper.
    xform_entry_ns: Optional[int] = None
    #: Baseline syscalls per client operation, used by the throughput
    #: harness for ring-buffer occupancy accounting.
    syscalls_per_op: int = 3
    #: Ring-buffer entries per client operation under the full Memtier
    #: load (50 connections).  Larger than ``syscalls_per_op`` because a
    #: loaded leader also registers per-connection epoll returns, partial
    #: reads, and timer syscalls that are cheap to execute but still
    #: occupy ring slots.  Calibrated once against Figure 7's buffer-size
    #: sweep; None means "same as syscalls_per_op".
    ring_entries_per_op: Optional[int] = None

    @property
    def entries_per_op(self) -> int:
        """Ring entries per op for occupancy accounting."""
        if self.ring_entries_per_op is not None:
            return self.ring_entries_per_op
        return self.syscalls_per_op

    def __post_init__(self) -> None:
        # The mode table is built once per profile instance, so
        # ``dataclasses.replace`` variants get their own; it is not a
        # field, hence invisible to eq/hash/repr.  Keyed by the mode's
        # label, not the member: ``Enum.__hash__`` is a Python-level
        # call, and the table is read once per costed iteration.
        object.__setattr__(self, "_factors", {
            mode._value_: self._resolve_factors(mode)
            for mode in ExecutionMode})

    def _resolve_factors(self, mode: ExecutionMode) -> ModeFactors:
        compute = 1.0
        syscall = 1.0
        byte = 1.0
        if mode.includes_kitsune:
            compute *= self.kitsune_compute_factor
        if mode is ExecutionMode.FOLLOWER:
            syscall *= _FOLLOWER_SYSCALL
        elif mode.uses_ring_buffer:
            syscall *= (self.varan_leader_syscall_factor
                        or _VARAN_LEADER_SYSCALL)
            byte *= self.varan_leader_byte_factor or _VARAN_LEADER_BYTE
        elif mode.includes_varan:
            syscall *= (self.varan_single_syscall_factor
                        or _VARAN_SINGLE_SYSCALL)
        return ModeFactors(compute, syscall, byte)

    def factors(self, mode: ExecutionMode) -> ModeFactors:
        """Overhead factors for running this app in ``mode``."""
        return self._factors[mode._value_]

    def iteration_cost_ns(self, mode: ExecutionMode, *, n_requests: int,
                          n_syscalls: int, n_bytes: int = 0) -> int:
        """Virtual cost of one event-loop iteration in ``mode``.

        Compute cost is charged per parsed request; syscall and byte
        costs per what the iteration's trace actually did.
        """
        f = self._factors[mode._value_]
        cost = (self.compute_ns * f.compute_factor * n_requests
                + n_syscalls * self.syscall_ns * f.syscall_factor
                + n_bytes * self.byte_ns * f.byte_factor)
        return int(round(cost))

    def op_cost_ns(self, mode: ExecutionMode, *, n_syscalls: Optional[int] = None,
                   n_bytes: int = 0) -> int:
        """Virtual cost of one client operation in ``mode``."""
        syscalls = self.syscalls_per_op if n_syscalls is None else n_syscalls
        f = self._factors[mode._value_]
        cost = (self.compute_ns * f.compute_factor
                + syscalls * self.syscall_ns * f.syscall_factor
                + n_bytes * self.byte_ns * f.byte_factor)
        return int(round(cost))


def op_cost(app: str, mode: ExecutionMode, *, n_syscalls: Optional[int] = None,
            n_bytes: int = 0) -> int:
    """Shorthand: per-op virtual cost for a named application profile."""
    return PROFILES[app].op_cost_ns(mode, n_syscalls=n_syscalls, n_bytes=n_bytes)


# ---------------------------------------------------------------------------
# Calibrated application profiles.
#
# The syscall split per op below matches what the simulated servers emit:
#   redis:     epoll_wait + read + write                          -> 3
#   memcached: epoll_wait + read + write + notify-pipe read       -> 4
#   vsftpd:    control read/write plus a full data-connection
#              open/accept/transfer/close cycle per RETR          -> 15
# ---------------------------------------------------------------------------

PROFILES: Dict[str, AppProfile] = {
    "redis": AppProfile(
        name="redis",
        compute_ns=10_352,
        syscall_ns=1_116,
        kitsune_compute_factor=1.000,   # paper measured -1% (noise)
        xform_entry_ns=5_000,           # ~5 s in-place xform for 1 M entries
        syscalls_per_op=3,
        ring_entries_per_op=12,
        varan_single_syscall_factor=1.356,   # -> 8% throughput drop
        varan_leader_syscall_factor=4.215,   # -> 44% throughput drop
    ),
    "memcached": AppProfile(
        name="memcached",
        compute_ns=11_600,
        syscall_ns=1_116,
        kitsune_compute_factor=1.042,   # ~3% end-to-end
        xform_entry_ns=5_000,
        syscalls_per_op=4,
        ring_entries_per_op=12,
        varan_single_syscall_factor=1.230,   # -> 6% throughput drop
        varan_leader_syscall_factor=4.600,   # -> 50% throughput drop
    ),
    "vsftpd-small": AppProfile(
        name="vsftpd-small",
        compute_ns=325_000,
        syscall_ns=3_333,
        kitsune_compute_factor=1.058,   # ~5% end-to-end
        syscalls_per_op=15,
        varan_single_syscall_factor=1.232,   # -> 3% throughput drop
        varan_leader_syscall_factor=3.370,   # -> 24% throughput drop
    ),
    "vsftpd-large": AppProfile(
        name="vsftpd-large",
        compute_ns=400_000,
        syscall_ns=3_333,
        byte_ns=0.67,                   # 10 MB payload dominates
        kitsune_compute_factor=1.058,
        syscalls_per_op=320,            # 64 KB chunked transfer of 10 MB
        varan_single_syscall_factor=1.232,
        varan_leader_syscall_factor=3.370,
        varan_leader_byte_factor=1.053,  # ring copies of 64 KB payloads
    ),
    # The paper's running example (Figure 1) — not part of Table 2; costs
    # are nominal so examples and tests still produce sensible timelines.
    "kvstore": AppProfile(
        name="kvstore",
        compute_ns=8_000,
        syscall_ns=1_000,
        kitsune_compute_factor=1.02,
        xform_entry_ns=5_000,
        syscalls_per_op=3,
    ),
}

#: Pause charged on the leader when forking the follower (copy-on-write
#: fork of a large process; the dominant part of Mvedsua-2^24's ~117 ms
#: max latency in Figure 7 relative to native's ~100 ms).
FORK_PAUSE_NS = 15_000_000

#: Delay the Kitsune runtime needs to quiesce all threads at update points.
QUIESCE_NS = 2_000_000
