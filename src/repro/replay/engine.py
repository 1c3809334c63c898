"""Offline replay: re-drive a candidate version against a recorded stream.

The engine reconstructs the follower's side of MVE from a
``repro-stream/1`` artifact alone — no workload, no scheduler, no chaos
plan.  A fresh server runs the chosen candidate version behind a
``REPLAY``-role gateway (which never touches a kernel: every syscall is
served from, and checked against, the expected stream), and each
recorded leader iteration is rewritten through the pair's rules exactly
as :meth:`repro.mve.varan.VaranRuntime._rewrite` would before being fed
to the candidate.

Because recording starts at process start (single-leader iterations
included), the candidate builds its heap by serving the same traffic the
recorded leader served — so "replay from scratch" needs no checkpoint
and works for any candidate the app registry can bridge with rules.
Control entries switch the leader version mid-stream, so a recording of
a full update lifecycle replays each segment under the right stage
rules (``OUTDATED_LEADER`` while the recorded leader is older than the
candidate, ``UPDATED_LEADER`` once it is newer, identity when equal).

A mismatch raises the same :class:`~repro.errors.DivergenceError` the
live monitor raises, and the engine packages the same
:class:`~repro.obs.forensics.ForensicsBundle` — time-travel forensics
for a run that may have happened on another machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import DivergenceError, ServerCrash
from repro.mve.gateway import GatewayRole, SyscallGateway
from repro.net.kernel import VirtualKernel
from repro.obs.forensics import ForensicsBundle, build_divergence_bundle
from repro.replay.apps import ReplayApp, replay_app
from repro.replay.stream import (RecordedStream, deserialize_record,
                                 read_stream)

#: Replay report schema identifier (bump on shape changes).
REPLAY_SCHEMA = "repro-replay/1"

#: Ring records kept for forensics (mirrors the tracer's last-K window).
FORENSICS_LAST_K = 32


@dataclass
class _HistoryEntry:
    """Ring-entry shape for forensics: the expected record as the
    follower would have popped it, stamped with the recorded iteration
    time and a running sequence number."""

    payload: Any
    produced_at: int
    sequence: int


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
                  against: Optional[str] = None,
                  app: Optional[ReplayApp] = None) -> ReplayReport:
    """Re-drive ``against`` (default: the recorded initial version)
    through the recording; returns the verdict."""
    if app is None:
        app = replay_app(stream.app)
    candidate = against if against else stream.initial_version
    server = app.make_server(candidate)
    # REPLAY gateways never execute against a kernel, so the candidate
    # does not attach(); it only needs the recorded fd labels so its
    # epoll/accept calls name the fds the leader's records name.
    kernel = VirtualKernel()
    gateway = SyscallGateway(kernel, domain=0, role=GatewayRole.REPLAY)
    server.bind_gateway(gateway)
    server.listen_fd = int(stream.header.get("listen_fd", 0))
    server.epoll_fd = int(stream.header.get("epoll_fd", 1))

    report = ReplayReport(
        app=app.name,
        scenario=stream.scenario,
        recorded_version=stream.initial_version,
        against=candidate,
        iterations=len(stream.iterations()),
    )
    leader_version = stream.initial_version
    report.final_version_recorded = leader_version
    history: deque = deque(maxlen=FORENSICS_LAST_K)
    last_engine = None
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
            report.controls_seen += 1
            continue
        if kind != "iter":
            continue
        iteration += 1
        records = [deserialize_record(raw) for raw in entry["records"]]
        ruleset, direction = app.stage_for(leader_version, candidate)
        if ruleset is None:
            expected = records
        else:
            engine = ruleset.engine_for_stage(direction)
            for record in records:
                engine.offer(record)
            engine.flush()
            report.rules_fired_names.extend(engine.fired)
            report.rules_fired = len(report.rules_fired_names)
            expected = engine.take_ready()
            last_engine = engine
        at = int(entry.get("at", 0))
        for record in expected:
            history.append(_HistoryEntry(record, at, sequence))
            sequence += 1
        gateway.begin_iteration(expected)
        try:
            server.run_iteration(gateway)
            gateway.finish_iteration()
        except DivergenceError as divergence:
            divergence.annotate(at=at, version=candidate)
            report.outcome = "divergence"
            report.divergence = {
                "at": at,
                "iteration": iteration,
                "entry_index": index,
                "recorded_leader": leader_version,
                "detail": str(divergence),
            }
            report.forensics = build_divergence_bundle(
                at=at,
                version=candidate,
                leader_version=leader_version,
                error=divergence,
                ring_history=list(history),
                ring_pending=[],
                expected_records=expected,
                issued_records=gateway.trace.records,
                rule_window=(last_engine.pending_window()
                             if last_engine is not None else 0),
                rules_fired=(list(last_engine.fired)
                             if last_engine is not None else []),
            )
            return report
        except ServerCrash as crash:
            report.outcome = "crash"
            report.divergence = {
                "at": at,
                "iteration": iteration,
                "entry_index": index,
                "recorded_leader": leader_version,
                "detail": str(crash),
            }
            return report
        report.iterations_replayed += 1
        report.records_replayed += len(records)
    return report


def replay_file(path: str, *, against: Optional[str] = None) -> ReplayReport:
    """Convenience wrapper: read a stream artifact and replay it."""
    return replay_stream(read_stream(path), against=against)
