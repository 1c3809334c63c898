"""Lock-step MVE comparators: MUC, Mx, Imago (paper §7 + Table 2).

These systems synchronise the versions at *every* syscall (MUC and Mx
via ptrace, Imago at whole-system request/response granularity), which
is where their overheads come from; and their architectures bound what
update errors they can handle.  Both aspects are modelled:

* overhead: a per-syscall synchronisation cost range applied to the
  calibrated app profiles (regenerating the bottom rows of Table 2);
* capabilities: flags mirroring the §7 comparison, consumed by the
  capability-matrix ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.syscalls.costs import AppProfile, ExecutionMode


@dataclass(frozen=True)
class LockstepSystem:
    """One comparator system."""

    name: str
    #: Extra synchronisation cost per syscall, (low, high) estimate,
    #: expressed as a multiple of the app's native syscall cost.
    sync_factor_range: Tuple[float, float]
    #: §7 capability flags.
    masks_update_pause: bool
    detects_in_update_errors: bool
    detects_post_update_errors: bool
    preserves_state_on_failure: bool
    supports_representation_changes: bool

    def overhead_range(self, profile: AppProfile) -> Tuple[float, float]:
        """Throughput-drop range vs native for ``profile``."""
        native = profile.op_cost_ns(ExecutionMode.NATIVE)
        drops = []
        for factor in self.sync_factor_range:
            extra = profile.syscalls_per_op * profile.syscall_ns * factor
            drops.append(1.0 - native / (native + extra))
        low, high = min(drops), max(drops)
        return (low, high)


#: Calibrated against the ranges the paper quotes in Table 2:
#: MUC 23.2%-87.1% overhead, Mx 3x-16x slowdown, Imago up to 1000x.
LOCKSTEP_SYSTEMS: Dict[str, LockstepSystem] = {
    "muc": LockstepSystem(
        name="MUC",
        # ptrace stop + coordinator compare on every syscall.
        sync_factor_range=(1.4, 28.0),
        masks_update_pause=False,          # runs both in lock-step
        detects_in_update_errors=True,
        detects_post_update_errors=False,  # cannot keep states related
        preserves_state_on_failure=False,
        supports_representation_changes=False,
    ),
    "mx": LockstepSystem(
        name="Mx",
        # full lock-step with synchronisation at each syscall, both
        # directions; the paper measured 3x-16x on comparable Redis runs.
        sync_factor_range=(9.0, 62.0),
        masks_update_pause=False,          # no DSU: versions start together
        detects_in_update_errors=False,    # there is no update
        detects_post_update_errors=True,   # tolerates errors in one version
        preserves_state_on_failure=True,
        supports_representation_changes=False,
    ),
    "imago": LockstepSystem(
        name="Imago",
        # whole-system duplication; the paper quotes up to 1000x.
        sync_factor_range=(100.0, 4100.0),
        masks_update_pause=True,
        detects_in_update_errors=True,
        detects_post_update_errors=True,
        preserves_state_on_failure=True,
        supports_representation_changes=False,  # shared external store
    ),
}

#: Mvedsua's own capability row, for the §7 matrix.
MVEDSUA_CAPABILITIES = {
    "masks_update_pause": True,
    "detects_in_update_errors": True,
    "detects_post_update_errors": True,
    "preserves_state_on_failure": True,
    "supports_representation_changes": True,
}
