"""Dynamic Software Updating — the Kitsune analogue.

Kitsune updates a running C program by loading new code, quiescing all
threads at programmer-chosen *update points*, and running programmer
written *state transformers* over the heap.  This package reproduces that
machinery for the simulated servers:

* :mod:`repro.dsu.version` — a code version: command handlers, protocol
  surface, and per-version behavioural quirks.
* :mod:`repro.dsu.transform` — the state-transformer registry, including
  deliberately buggy transformers for the paper's §6.2 experiments.
* :mod:`repro.dsu.program` — an updatable program: heap + threads +
  update-point configuration.
* :mod:`repro.dsu.kitsune` — the update engine itself (quiesce, load,
  transform, swap), with the Mvedsua fork hook of the paper's §4.
"""

from repro.dsu.version import ServerVersion, VersionRegistry
from repro.dsu.transform import StateTransformer, TransformRegistry
from repro.dsu.program import ThreadState, UpdatableProgram
from repro.dsu.kitsune import Kitsune, UpdateAttempt

__all__ = [
    "ServerVersion",
    "VersionRegistry",
    "StateTransformer",
    "TransformRegistry",
    "ThreadState",
    "UpdatableProgram",
    "Kitsune",
    "UpdateAttempt",
]
