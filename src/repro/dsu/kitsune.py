"""The DSU engine (Kitsune analogue).

A standalone Kitsune update is: signal → quiesce all threads at update
points → run the state transformer → swap code → resume.  The whole
process pauses service for ``quiesce + transform`` — the pause Figure 7
measures at ~5 s for a 1M-entry Redis heap.

Mvedsua changes *where* this work happens, not what it is: the update is
applied to a forked follower while the leader keeps serving.  Both run
one step, :meth:`Kitsune.begin_update` (quiesce, then transform), and
differ only in where its output is installed; the hook the paper added
for the leader side (§4) is the program's abort callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import QuiescenceTimeout, StateTransformError
from repro.dsu.program import ThreadState, UpdatableProgram
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion
from repro.sites import OBS


def _racy_threads(program: UpdatableProgram, param) -> UpdatableProgram:
    """A stand-in for ``program`` whose threads raced the update signal
    (the "race" quiesce fault; §6.2's E3 setup), for one quiescence.

    Exactly one ``rng`` draw per call, so retry statistics are
    deterministic for a given seed.
    """
    rng = param["rng"]
    probability = float(param.get("probability", 0.75))
    threads = [ThreadState("main")]
    blocked = rng.random() < probability
    threads.append(ThreadState("worker-0", blocked_on_lock=blocked))
    for index in range(1, 4):
        threads.append(ThreadState(f"worker-{index}",
                                   inside_event_loop=True))
    return UpdatableProgram(program.version, program.heap, threads,
                            program.epoll_update_points)


def _scramble(value: Any, marker: str) -> None:
    """Silently corrupt string/bytes values in a transformed heap, in
    place (the "corrupt-heap" fault): the update installs, but the
    follower's replies later disagree with the leader's — a latent
    transformer bug the divergence check must catch."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        if isinstance(child, str):
            value[key] = child + marker
        elif isinstance(child, bytes):
            value[key] = child + marker.encode("latin-1")
        else:
            _scramble(child, marker)


@dataclass
class UpdateAttempt:
    """How one update attempt ended, standalone or under Mvedsua.

    ``reason`` is ``"applied"``, ``"quiescence-failed"`` or
    ``"transform-failed"``; ``at`` is when the attempt took effect (its
    start for standalone Kitsune, the fork under Mvedsua).  A standalone
    update pauses service for ``quiesce_ns + xform_ns``; under Mvedsua
    the transform runs on the follower and the leader pays the fork.
    """

    ok: bool
    reason: str
    at: int
    quiesce_ns: int = 0
    xform_ns: int = 0
    entries: int = 0
    error: Optional[str] = None


class Kitsune:
    """Quiesce / transform / swap; the swap is the caller's under Mvedsua."""

    def __init__(self, transforms: TransformRegistry,
                 quiesce_timeout_ns: int = 50_000_000) -> None:
        self.transforms = transforms
        self.quiesce_timeout_ns = quiesce_timeout_ns

    # -- the two phases ------------------------------------------------------

    def quiesce(self, program: UpdatableProgram) -> int:
        """Park all threads at update points; returns the time it took.

        Raises :class:`QuiescenceTimeout` when some thread cannot reach an
        update point — the *timing error* class of update failures.
        """
        extra_ns = 0
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.fire("dsu.quiesce")
            if fault is not None:
                if fault.kind == "timeout":
                    raise QuiescenceTimeout(
                        "chaos: threads never reached update points")
                if fault.kind == "race":
                    program = _racy_threads(program, fault.param)
                elif fault.kind == "delay":
                    extra_ns = max(0, int(fault.param.get("delay_ns", 0)))
        needed = program.quiescence_time()
        if needed is not None:
            needed += extra_ns
        if needed is None or needed > self.quiesce_timeout_ns:
            blockers = [
                t.name for t in program.threads
                if t.blocked_on_lock
                or (t.inside_event_loop and not program.epoll_update_points)
                or t.reach_update_point_ns > self.quiesce_timeout_ns
            ]
            raise QuiescenceTimeout(
                f"threads never reached update points: {blockers}"
            )
        return needed

    def transform(self, program: UpdatableProgram,
                  new_version: ServerVersion,
                  xform_entry_ns: int) -> Tuple[Dict[str, Any], int, int]:
        """Run the state transformer for ``program -> new_version``.

        Returns ``(new_heap, duration_ns, entries)``.  Raises
        :class:`StateTransformError` on buggy transformers.
        """
        old = program.version
        # The old version counts its own heap, before any transformer
        # runs.
        entries = old.heap_entries(program.heap)
        fault = None
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.fire("dsu.transform")
            if fault is not None and fault.kind == "exception":
                raise StateTransformError(
                    "chaos: injected state-transformer failure")
        if fault is not None and fault.kind == "replace":
            # Swap in a caller-supplied (typically buggy) transformer
            # for just this pair — the E2 fault class.
            registry = TransformRegistry()
            registry.register(old.app, old.name, new_version.name,
                              fault.param["transformer"])
            new_heap = registry.apply(old.app, old.name, new_version.name,
                                      program.heap)
        else:
            new_heap = self.transforms.apply(old.app, old.name,
                                             new_version.name, program.heap)
        if fault is not None and fault.kind == "corrupt-heap":
            # The transformed heap is private to the update.
            _scramble(new_heap, str(fault.param.get("marker", "\x00chaos")))
        duration = entries * xform_entry_ns
        return new_heap, duration, entries

    # -- the update step, standalone or under Mvedsua ------------------------

    def begin_update(self, program: UpdatableProgram,
                     new_version: ServerVersion, *, at: int,
                     xform_entry_ns: int, **event_fields: Any
                     ) -> Tuple[UpdateAttempt, ServerVersion,
                                Optional[Dict[str, Any]]]:
        """Quiesce ``program`` and transform its heap for ``new_version``
        from virtual time ``at``: the step standalone Kitsune installs in
        place and Mvedsua forks a follower around.

        Returns ``(attempt, version, heap)``: the version to install (a
        ``dsu.update`` fault may have swapped it) and the transformed
        heap, ``None`` when the attempt failed; a failure is logged when
        it happened and leaves ``program`` untouched.  ``event_fields``
        go onto the ``dsu.request`` event; the run clock moves to ``at``
        first, so a ``dsu.*`` fault is stamped at its attempt.
        """
        if at > OBS.vnow:
            OBS.vnow = at
        chaos = OBS.chaos
        if chaos is not None:
            fault = chaos.fire("dsu.update")
            if fault is not None:
                # "buggy-version": the operator ships a broken build —
                # the E1 fault class.
                new_version = fault.param["factory"](new_version)
        tracer = OBS.tracer
        if tracer is not None:
            tracer.emit("dsu.request", "dsu", at=at, old=program.version.name,
                        new=new_version.name, **event_fields)
        try:
            quiesce_ns = self.quiesce(program)
        except QuiescenceTimeout as exc:
            if tracer is not None:
                tracer.emit("dsu.failed", "dsu", at=at,
                            reason="quiescence-failed", error=str(exc))
            return (UpdateAttempt(False, "quiescence-failed", at,
                                  error=str(exc)), new_version, None)
        if tracer is not None:
            tracer.emit("dsu.quiesce", "dsu", at=at + quiesce_ns,
                        ns=quiesce_ns)
        try:
            new_heap, xform_ns, entries = self.transform(
                program, new_version, xform_entry_ns)
        except StateTransformError as exc:
            # A detectably-failing transformer aborts the update after
            # quiescence was paid for.
            if tracer is not None:
                tracer.emit("dsu.failed", "dsu", at=at + quiesce_ns,
                            reason="transform-failed", error=str(exc))
            return (UpdateAttempt(False, "transform-failed", at,
                                  quiesce_ns=quiesce_ns, error=str(exc)),
                    new_version, None)
        return (UpdateAttempt(True, "applied", at, quiesce_ns=quiesce_ns,
                              xform_ns=xform_ns, entries=entries),
                new_version, new_heap)

    def apply_update(self, program: UpdatableProgram,
                     new_version: ServerVersion, *,
                     xform_entry_ns: int = 0, at: int = 0) -> UpdateAttempt:
        """Update ``program`` in place, Kitsune-style, from virtual time
        ``at`` (where its ``dsu.*`` trace events are stamped from).

        On success ``program.apply_version`` installs the new version and
        the transformed heap, and the attempt carries both phases of the
        service pause.  On failure the program is untouched (Kitsune
        aborts back to the old code) and the attempt says why.
        """
        old_name = program.version.name
        attempt, new_version, new_heap = self.begin_update(
            program, new_version, at=at, xform_entry_ns=xform_entry_ns,
            system="kitsune")
        if not attempt.ok:
            return attempt
        program.apply_version(new_version, new_heap)
        tracer = OBS.tracer
        if tracer is not None:
            done = at + attempt.quiesce_ns + attempt.xform_ns
            tracer.emit("dsu.xform", "dsu", at=done, ns=attempt.xform_ns,
                        entries=attempt.entries, version=new_version.name)
            tracer.emit("dsu.applied", "dsu", at=done, old=old_name,
                        new=new_version.name, system="kitsune")
            tracer.emit("dsu.resume", "dsu", at=done)
        return attempt
