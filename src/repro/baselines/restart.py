"""Stop/restart and checkpoint-restart upgrade strategies (paper §2.2).

These are the strategies Mvedsua's introduction argues against:

* **stop/restart** — kill the old version, start the new one.  Fast, but
  all in-memory state is gone: the paper's ``GET balance`` after a
  restart fails instead of returning 1000.
* **checkpoint-restart** — persist the store on shutdown, restore on
  startup.  Keeps the state but (a) pauses service for the full
  serialise + restart + deserialise cycle (the paper quotes 28 s for a
  10 GB Redis heap), and (b) only works when the state *format* did not
  change between versions — which is exactly what release-level updates
  like the Figure 1 example break.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from repro.dsu.version import ServerVersion
from repro.errors import UpdateError
from repro.sim.engine import MILLISECOND

#: Serialise/deserialise cost per state byte, each way.  Calibrated to
#: the paper's data point: checkpointing and restarting a 10 GB Redis
#: heap took 28 s, i.e. ~2.75 ns/byte round trip plus process restart.
CHECKPOINT_BYTE_NS = 1.375

#: Approximate serialised size per heap entry, for the pause model (the
#: real payload is pickled regardless).
CHECKPOINT_ENTRY_BYTES = 64

#: Process teardown + exec + listen, independent of state size.
RESTART_BASE_NS = 500 * MILLISECOND

#: Where checkpoints land on the virtual filesystem.
CHECKPOINT_PATH = "/checkpoint.bin"


class IncompatibleCheckpoint(UpdateError):
    """The new version cannot read the old version's checkpoint format."""


def checkpoint_pause_ns(state_bytes: int) -> int:
    """Full service pause of a checkpoint-restart upgrade."""
    return int(2 * CHECKPOINT_BYTE_NS * state_bytes) + RESTART_BASE_NS


@dataclass
class UpgradeReport:
    """What an upgrade strategy did."""

    strategy: str
    pause_ns: int
    state_preserved: bool
    detail: str = ""


class StopRestart:
    """Kill and restart: no state survives."""

    def perform(self, runtime: Any, new_version: ServerVersion,
                now: int) -> UpgradeReport:
        """Swap versions the blunt way; the heap is reinitialised."""
        server = runtime.server
        server.apply_version(new_version, new_version.initial_heap())
        server.sessions.clear()
        runtime.cpu.block_until(max(now, runtime.cpu.busy_until)
                                + RESTART_BASE_NS)
        return UpgradeReport("stop-restart", RESTART_BASE_NS,
                             state_preserved=False,
                             detail="in-memory state dropped")


class CheckpointRestart:
    """Persist on shutdown, restore on startup.

    The checkpoint is genuinely written to (and read back from) the
    virtual filesystem; the pause combines the measured per-byte cost
    with the restart base.  Restoring into a version with a different
    ``state_format`` raises — the §2.2 failure mode.
    """

    def perform(self, runtime: Any, new_version: ServerVersion,
                now: int) -> UpgradeReport:
        server = runtime.server
        old_version = server.version
        payload = pickle.dumps((old_version.state_format, server.heap))
        runtime.kernel.fs.write_file(CHECKPOINT_PATH, payload)

        state_bytes = (old_version.heap_entries(server.heap)
                       * CHECKPOINT_ENTRY_BYTES)
        pause = checkpoint_pause_ns(state_bytes)

        if new_version.state_format != old_version.state_format:
            # The restore fails after the pause was already paid; the
            # operator is left restarting the *old* version.
            runtime.cpu.block_until(max(now, runtime.cpu.busy_until)
                                    + pause)
            raise IncompatibleCheckpoint(
                f"checkpoint format {old_version.state_format!r} is not "
                f"readable by {new_version.describe()} "
                f"(format {new_version.state_format!r})")

        stored_format, heap = pickle.loads(
            runtime.kernel.fs.read_file(CHECKPOINT_PATH))
        assert stored_format == old_version.state_format
        server.apply_version(new_version, heap)
        server.sessions.clear()  # connections do not survive a restart
        runtime.cpu.block_until(max(now, runtime.cpu.busy_until) + pause)
        return UpgradeReport("checkpoint-restart", pause,
                             state_preserved=True,
                             detail=f"{state_bytes:,} state bytes "
                                    f"round-tripped")
