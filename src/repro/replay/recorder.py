"""The stream recorder: taps the leader's syscall stream into an artifact.

A :class:`StreamRecorder` is installed with
:func:`repro.sites.observing` and *claimed* by the first
:class:`~repro.mve.varan.VaranRuntime` constructed while it is —
scenarios that build several MVE groups in sequence record only the
first, which keeps the artifact a single coherent stream.  The claimed
runtime then drives three hooks:

* :meth:`on_iteration` — one completed **leader** iteration with its
  raw syscall records (pre-rewrite: rules are applied at replay time,
  so one recording can be replayed against any candidate version).
  This is a superset of the ring-publish hook: single-leader iterations
  are recorded too, so a stream covers the full scenario lifecycle, not
  just the MVE window.
* :meth:`on_control` — promote / crash-promote markers, so replay knows
  which version produced each segment of the stream.
* :meth:`on_fork` — follower attach points.

Every hook is one attribute load plus an ``is None`` test on the hot
path, same zero-cost discipline as the tracer; the class-level
``created_total`` / ``recorded_total`` counters let the regression
suite assert the disabled path allocates nothing.

Runtime metadata is captured duck-typed at claim time, so this module
never imports the runtime it taps.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional

from repro.replay.stream import (STREAM_SCHEMA, serialize_record,
                                 write_stream)
from repro.sites import OBS


class StreamRecorder:
    """Accumulates one scenario's leader stream for :func:`write`."""

    #: Recorder instances ever constructed (process lifetime).
    created_total = 0
    #: Iterations ever recorded, across all recorders (process lifetime).
    recorded_total = 0

    def __init__(self, scenario: str = "") -> None:
        StreamRecorder.created_total += 1
        self.scenario = scenario
        self.header: Optional[Dict[str, Any]] = None
        self.entries: List[Dict[str, Any]] = []
        self._claimed_by: Optional[weakref.ref] = None
        self.iterations = 0
        self.records = 0

    # -- claiming -----------------------------------------------------------

    def claim(self, runtime: Any) -> bool:
        """Bind this recorder to ``runtime`` (first MVE group wins).

        Returns True when ``runtime`` holds the claim; later runtimes
        get False and must not record.  The claim is held by weakref —
        not ``id()`` — so a later runtime allocated at a dead claimant's
        address cannot falsely win; once the claimant dies the claim
        simply stays closed.  Metadata is captured here, once,
        duck-typed off the runtime: app (the leader version's own
        ``app``, the catalog key) + cost profile, the initial
        leader version, ring capacity, and the fault plan in force.
        """
        if self._claimed_by is not None:
            return self._claimed_by() is runtime
        self._claimed_by = weakref.ref(runtime)
        profile_name = getattr(runtime.profile, "name", "")
        chaos = OBS.chaos
        fault_plan = None
        if chaos is not None and getattr(chaos.plan, "faults", ()):
            fault_plan = chaos.plan.as_dict()
        server = runtime.leader.server
        self.header = {
            "type": "header",
            "schema": STREAM_SCHEMA,
            "app": server.version.app,
            "scenario": self.scenario,
            "initial_version": runtime.leader.version_name,
            "profile": profile_name,
            "ring_capacity": runtime.ring.capacity,
            # fd labels the replayed candidate must use so its epoll /
            # accept calls name the fds the leader's records name.
            "listen_fd": getattr(server, "listen_fd", 0),
            "epoll_fd": getattr(server, "epoll_fd", 1),
            "fault_plan": fault_plan,
        }
        return True

    # -- hooks (called by the claimed VaranRuntime) -------------------------

    def on_iteration(self, at: int, version: str, mve: bool,
                     records: List[Any]) -> None:
        """One completed leader iteration (records pre-rewrite)."""
        self.entries.append({
            "type": "iter",
            "at": at,
            "version": version,
            "mve": mve,
            "records": [serialize_record(record) for record in records],
        })
        self.iterations += 1
        self.records += len(records)
        StreamRecorder.recorded_total += 1

    def on_control(self, kind: str, at: int, version: str,
                   new_leader: str) -> None:
        """A promote or crash-promote changed which version leads."""
        self.entries.append({
            "type": "control",
            "kind": kind,
            "at": at,
            "version": version,
            "new_leader": new_leader,
        })

    def on_fork(self, at: int, version: str) -> None:
        """A follower attached (the stream enters its MVE window)."""
        self.entries.append({"type": "fork", "at": at, "version": version})

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the ``repro-stream/1`` artifact; returns entries written
        (header and footer included)."""
        if self.header is None:
            raise ValueError("recorder was never claimed by a runtime — "
                             "nothing to write")
        return write_stream(path, self.header, self.entries)
