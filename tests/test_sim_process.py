"""Unit tests for CPU accounting (single-server queue semantics)."""

import pytest

from repro.errors import SimulationError
from repro.sim import CpuAccount


def test_idle_cpu_starts_work_at_arrival():
    cpu = CpuAccount()
    assert cpu.charge(arrival=100, cost=50) == 150


def test_busy_cpu_queues_work():
    cpu = CpuAccount()
    cpu.charge(arrival=0, cost=100)
    # Arrives while busy: starts at 100, ends at 130.
    assert cpu.charge(arrival=20, cost=30) == 130


def test_start_time_reflects_queue():
    cpu = CpuAccount()
    cpu.charge(arrival=0, cost=100)
    # Work starts at max(arrival, busy_until): behind the queue first,
    # then at its own arrival once the core has gone idle.
    assert cpu.charge(arrival=50, cost=0) == 100
    assert cpu.charge(arrival=200, cost=0) == 200


def test_total_busy_accumulates_only_work():
    cpu = CpuAccount()
    cpu.charge(arrival=0, cost=10)
    cpu.charge(arrival=100, cost=5)
    assert cpu.total_busy == 15


def test_block_until_stalls_without_busy_time():
    cpu = CpuAccount()
    cpu.block_until(500)
    assert cpu.busy_until == 500
    assert cpu.total_busy == 0
    # Blocking to an earlier time is a no-op.
    cpu.block_until(100)
    assert cpu.busy_until == 500


def test_negative_cost_rejected():
    cpu = CpuAccount()
    with pytest.raises(SimulationError, match="negative CPU cost: -1"):
        cpu.charge(arrival=0, cost=-1)
    assert (cpu.busy_until, cpu.total_busy) == (0, 0)  # nothing charged


def test_fork_starts_child_at_fork_time():
    cpu = CpuAccount("leader")
    cpu.charge(arrival=0, cost=1000)
    child = cpu.fork("follower", at=1000)
    assert child.busy_until == 1000
    assert child.total_busy == 0


def test_reset_clears_accounting():
    # A fresh account is a fork: none of the parent's busy time, and
    # available from the fork time even when the parent is busy later.
    cpu = CpuAccount()
    cpu.charge(arrival=0, cost=10)
    child = cpu.fork("follower", at=4)
    assert child.busy_until == 4
    assert child.total_busy == 0
    assert (cpu.busy_until, cpu.total_busy) == (10, 10)


def test_back_to_back_fifo_order():
    cpu = CpuAccount()
    completions = [cpu.charge(arrival=0, cost=10) for _ in range(5)]
    assert completions == [10, 20, 30, 40, 50]
