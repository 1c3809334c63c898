"""One cluster node."""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.core import Mvedsua
from repro.dsu.transform import TransformRegistry
from repro.net.kernel import VirtualKernel
from repro.servers.native import NativeRuntime
from repro.syscalls.costs import AppProfile


class NodeStatus(enum.Enum):
    """Load-balancer-visible node state."""

    SERVING = "serving"
    DRAINING = "draining"
    RESTARTING = "restarting"
    #: A canary whose update was demoted (divergence during validation).
    #: Existing sessions keep being served — the runtime rolled back to
    #: the old leader with no state loss — but no *new* placement lands
    #: here until the fleet-wide rollback completes.
    DEMOTED = "demoted"
    #: Crashed or unreachable.  Routing must fail sessions over; only an
    #: operator replacing the node brings it back.
    FAILED = "failed"


class ClusterNode:
    """A server process plus its place in the cluster."""

    def __init__(self, name: str, kernel: VirtualKernel, server: Any,
                 profile: AppProfile, *,
                 transforms: Optional[TransformRegistry] = None,
                 ring_link: Optional[Any] = None) -> None:
        self.name = name
        self.kernel = kernel
        self.server = server
        self.status = NodeStatus.SERVING
        #: Fleet identity, assigned by :class:`repro.cluster.shard.Shard`
        #: when the node joins a replica group (None until it does).
        self.shard_index: Optional[int] = None
        self.replica_index: Optional[int] = None
        # A ``ring_link`` houses the Mvedsua follower on another node.
        if transforms is not None:
            self.runtime: Any = Mvedsua(kernel, server, profile,
                                        transforms=transforms,
                                        ring_link=ring_link)
        else:
            self.runtime = NativeRuntime(kernel, server, profile,
                                         with_kitsune=True)

    @property
    def address(self):
        return self.server.address

    @property
    def current_server(self) -> Any:
        """The process currently serving clients.

        Under Mvedsua this is the MVE group's *leader*, which after a
        promotion is the forked (updated) copy rather than the process
        the node started with.
        """
        if isinstance(self.runtime, Mvedsua):
            return self.runtime.runtime.leader.server
        return self.server

    @property
    def version_name(self) -> str:
        return self.current_server.version.name

    @property
    def in_mve_mode(self) -> bool:
        """True while this node pays for a leader-follower pair.

        The fleet orchestrator samples this per shard to enforce (and
        report) the paper's §1.2 budget: at most one replica per shard
        in MVE mode at any time.
        """
        if isinstance(self.runtime, Mvedsua):
            return self.runtime.runtime.in_mve_mode
        return False

    def accepting_new_connections(self) -> bool:
        """True when the balancer may route new clients here."""
        return self.status is NodeStatus.SERVING

    def healthy(self) -> bool:
        """False once the node has crashed; routing must avoid it."""
        return self.status is not NodeStatus.FAILED

    def active_sessions(self) -> int:
        """Connections currently attached to this node."""
        return len(self.current_server.sessions)

    def pump(self, now: int) -> int:
        """Serve pending input."""
        return self.runtime.pump(now)
