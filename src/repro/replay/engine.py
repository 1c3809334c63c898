"""Offline replay: re-drive a candidate version against a recorded stream.

The engine reconstructs the follower's side of MVE from a
``repro-stream/1`` artifact alone — no workload, no scheduler, no chaos
plan.  A fresh server runs the chosen candidate version behind a
``REPLAY``-role gateway (which never touches a kernel: every syscall is
served from, and checked against, the expected stream), and each
recorded leader iteration goes through the live monitor's own follower
step — :func:`repro.mve.varan.rewrite_iteration` through the pair's
rules, then :func:`repro.mve.varan.replay_iteration`.

Because recording starts at process start (single-leader iterations
included), the candidate builds its heap by serving the same traffic the
recorded leader served — so "replay from scratch" needs no checkpoint
and works for any candidate the app catalog (:mod:`repro.apps`) can
bridge with rules.
Control entries switch the leader version mid-stream, so a recording of
a full update lifecycle replays each segment under the right stage
rules (``OUTDATED_LEADER`` while the recorded leader is older than the
candidate, ``UPDATED_LEADER`` once it is newer, identity when equal).

A mismatch therefore raises the same
:class:`~repro.errors.DivergenceError` carrying the same
:class:`~repro.obs.forensics.ForensicsBundle` — time-travel forensics
for a run that may have happened on another machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps import app
from repro.errors import DivergenceError, ServerCrash
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.mve.ring_buffer import RingEntry
from repro.mve.varan import replay_iteration, rewrite_iteration
from repro.net.kernel import VirtualKernel
from repro.obs.forensics import FORENSICS_LAST_K, ForensicsBundle
from repro.replay.stream import (RecordedStream, deserialize_record,
                                 read_stream)

#: Replay report schema identifier (bump on shape changes).
REPLAY_SCHEMA = "repro-replay/1"


@dataclass
class ReplayReport:
    """The verdict of one offline replay."""

    app: str
    scenario: str
    recorded_version: str
    against: str
    iterations: int = 0
    iterations_replayed: int = 0
    records_replayed: int = 0
    controls_seen: int = 0
    rules_fired: int = 0
    #: ``match`` | ``divergence`` | ``crash``
    outcome: str = "match"
    divergence: Optional[Dict[str, Any]] = None
    forensics: Optional[ForensicsBundle] = None
    final_version_recorded: str = ""
    rules_fired_names: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.outcome == "match"

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": REPLAY_SCHEMA,
            "app": self.app,
            "scenario": self.scenario,
            "recorded_version": self.recorded_version,
            "against": self.against,
            "outcome": self.outcome,
            "iterations": self.iterations,
            "iterations_replayed": self.iterations_replayed,
            "records_replayed": self.records_replayed,
            "controls_seen": self.controls_seen,
            "rules_fired": self.rules_fired,
            "final_version_recorded": self.final_version_recorded,
            "divergence": self.divergence,
        }
        if self.forensics is not None:
            payload["forensics"] = self.forensics.as_dict()
        return payload


def replay_stream(stream: RecordedStream, *,
                  against: Optional[str] = None) -> ReplayReport:
    """Re-drive ``against`` (default: the recorded initial version)
    through the recording; returns the verdict.  ``NoUpdatePath`` for
    an app the catalog does not ship or a label the app does not
    have."""
    config = app(stream.app)
    candidate = against if against else stream.initial_version
    server = config.server(candidate)
    # REPLAY gateways never execute against a kernel, so the candidate
    # does not attach(); it only needs the recorded fd labels so its
    # epoll/accept calls name the fds the leader's records name.
    kernel = VirtualKernel()
    gateway = SyscallGateway(kernel, domain=0, role=GatewayRole.REPLAY)
    server.bind_gateway(gateway)
    server.listen_fd = stream.header["listen_fd"]
    server.epoll_fd = stream.header["epoll_fd"]

    report = ReplayReport(
        app=config.name,
        scenario=stream.scenario,
        recorded_version=stream.initial_version,
        against=candidate,
        iterations=len(stream.iterations()),
    )
    leader_version = stream.initial_version
    report.final_version_recorded = leader_version
    # The rules bridging the recorded leader to the candidate; control
    # entries switch the leader, and with it the stage.
    ruleset, direction = config.stage_for(leader_version, candidate)
    # Ring-entry shape for forensics: each expected record as the
    # follower would have popped it, stamped with the recorded iteration
    # time and a running sequence number.
    history: deque = deque(maxlen=FORENSICS_LAST_K)
    sequence = 0
    # Iter-only index of the entry being replayed, so the reported
    # "iteration" lines up with report.iterations / iterations_replayed
    # (which never count control or fork entries).
    iteration = -1

    for index, entry in enumerate(stream.entries):
        kind = entry["type"]
        if kind == "control":
            leader_version = entry["new_leader"]
            report.final_version_recorded = leader_version
            ruleset, direction = config.stage_for(leader_version,
                                                  candidate)
            report.controls_seen += 1
            continue
        if kind != "iter":
            continue
        iteration += 1
        records = [deserialize_record(raw) for raw in entry["records"]]
        engine = ruleset.engine_for_stage(direction) \
            if ruleset is not None else None
        expected = rewrite_iteration(engine, records)
        if engine is not None:
            report.rules_fired_names.extend(engine.fired)
            report.rules_fired = len(report.rules_fired_names)
        at = entry["at"]
        history.extend(RingEntry(record, at, sequence + offset)
                       for offset, record in enumerate(expected))
        sequence += len(expected)
        try:
            replay_iteration(server, gateway, expected, engine, at=at,
                             version=candidate,
                             leader_version=leader_version,
                             ring_history=history)
        except (DivergenceError, ServerCrash) as failure:
            diverged = isinstance(failure, DivergenceError)
            report.outcome = "divergence" if diverged else "crash"
            report.divergence = {
                "at": at,
                "iteration": iteration,
                "entry_index": index,
                "recorded_leader": leader_version,
                "detail": str(failure),
            }
            if diverged:
                report.forensics = failure.forensics
            return report
        report.iterations_replayed += 1
        report.records_replayed += len(records)
    return report


def replay_file(path: str, *, against: Optional[str] = None) -> ReplayReport:
    """Convenience wrapper: read a stream artifact and replay it."""
    return replay_stream(read_stream(path), against=against)
