"""Unit tests for the Kitsune analogue: versions, transforms, updates."""

import pytest

from repro.dsu import (
    Kitsune,
    ServerVersion,
    ThreadState,
    TransformRegistry,
    UpdatableProgram,
    UpdateOutcome,
    VersionRegistry,
)
from repro.errors import NoUpdatePath, QuiescenceTimeout, StateTransformError


class VersionA(ServerVersion):
    app = "toy"
    name = "1.0"

    def initial_heap(self):
        return {"table": {}}

    def handle(self, heap, request, session=None, io=None):
        return [b"+OK\r\n"]

    def commands(self):
        return frozenset({"PUT", "GET"})

    def heap_entries(self, heap):
        return len(heap["table"])


class VersionB(VersionA):
    name = "2.0"

    def initial_heap(self):
        return {"table": {}, "types": {}}

    def commands(self):
        return frozenset({"PUT", "GET", "TYPE"})


@pytest.fixture
def registry():
    reg = VersionRegistry()
    reg.register(VersionA())
    reg.register(VersionB())
    return reg


@pytest.fixture
def transforms():
    reg = TransformRegistry()

    @reg.register("toy", "1.0", "2.0")
    def xform(heap):
        heap["types"] = {key: "string" for key in heap["table"]}
        return heap

    return reg


class TestVersionRegistry:
    def test_lookup(self, registry):
        assert registry.get("toy", "1.0").name == "1.0"

    def test_unknown_version_raises(self, registry):
        with pytest.raises(NoUpdatePath):
            registry.get("toy", "9.9")

    def test_duplicate_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register(VersionA())

    def test_release_order(self, registry):
        assert registry.releases("toy") == ["1.0", "2.0"]

    def test_successor(self, registry):
        # The release after ``old`` is its update pair's ``new``; the
        # latest release starts no pair.
        successors = dict(registry.update_pairs("toy"))
        assert successors == {"1.0": "2.0"}
        assert registry.releases("toy")[-1] not in successors

    def test_successor_of_unknown_raises(self, registry):
        assert "0.1" not in registry.releases("toy")
        with pytest.raises(NoUpdatePath):
            registry.get("toy", "0.1")

    def test_update_pairs(self, registry):
        assert registry.update_pairs("toy") == [("1.0", "2.0")]


class TestTransformRegistry:
    def test_apply_migrates_heap(self, transforms):
        heap = {"table": {"k": "v"}}
        new_heap = transforms.apply("toy", "1.0", "2.0", heap)
        assert new_heap["types"] == {"k": "string"}

    def test_apply_does_not_mutate_old_heap(self, transforms):
        heap = {"table": {"k": "v"}}
        transforms.apply("toy", "1.0", "2.0", heap)
        assert "types" not in heap

    def test_missing_transformer_raises(self, transforms):
        with pytest.raises(NoUpdatePath):
            transforms.get("toy", "2.0", "3.0")

    def test_has(self, transforms):
        assert transforms.has("toy", "1.0", "2.0")
        assert not transforms.has("toy", "2.0", "1.0")

    def test_raising_transformer_wrapped(self):
        reg = TransformRegistry()
        reg.register("toy", "1.0", "2.0", lambda heap: 1 / 0)
        with pytest.raises(StateTransformError, match="raised"):
            reg.apply("toy", "1.0", "2.0", {})

    def test_none_returning_transformer_rejected(self):
        reg = TransformRegistry()
        reg.register("toy", "1.0", "2.0", lambda heap: None)
        with pytest.raises(StateTransformError, match="no heap"):
            reg.apply("toy", "1.0", "2.0", {})


class TestQuiescence:
    def test_single_thread_quiesces(self):
        program = UpdatableProgram(VersionA(), {"table": {}})
        assert program.quiescence_time() == 100_000

    def test_worst_thread_dominates(self):
        program = UpdatableProgram(VersionA(), {"table": {}}, threads=[
            ThreadState("t1", reach_update_point_ns=10),
            ThreadState("t2", reach_update_point_ns=999),
        ])
        assert program.quiescence_time() == 999

    def test_lock_blocked_thread_prevents_quiescence(self):
        program = UpdatableProgram(VersionA(), {"table": {}}, threads=[
            ThreadState("holder", reach_update_point_ns=10),
            ThreadState("waiter", blocked_on_lock=True),
        ])
        assert program.quiescence_time() is None

    def test_event_loop_thread_needs_epoll_update_points(self):
        threads = [ThreadState("worker", inside_event_loop=True)]
        stuck = UpdatableProgram(VersionA(), {}, threads=list(threads))
        assert stuck.quiescence_time() is None
        fixed = UpdatableProgram(VersionA(), {}, threads=list(threads),
                                 epoll_update_points=True)
        assert fixed.quiescence_time() is not None


class TestKitsuneUpdate:
    def make_program(self, entries=3):
        heap = {"table": {f"k{i}": "v" for i in range(entries)}}
        return UpdatableProgram(VersionA(), heap)

    def test_successful_update_swaps_version_and_heap(self, transforms):
        program = self.make_program()
        kitsune = Kitsune(transforms)
        result = kitsune.apply_update(program, VersionB(), xform_entry_ns=100)
        assert result.ok
        assert program.version.name == "2.0"
        assert set(program.heap["types"]) == set(program.heap["table"])

    def test_pause_scales_with_heap_entries(self, transforms):
        kitsune = Kitsune(transforms)
        small = kitsune.apply_update(self.make_program(10), VersionB(),
                                     xform_entry_ns=1_000)
        large = kitsune.apply_update(self.make_program(10_000), VersionB(),
                                     xform_entry_ns=1_000)
        assert large.pause_ns - small.pause_ns == (10_000 - 10) * 1_000
        assert large.entries_transformed == 10_000

    def test_quiescence_failure_aborts_without_changes(self, transforms):
        program = UpdatableProgram(VersionA(), {"table": {}}, threads=[
            ThreadState("stuck", blocked_on_lock=True)])
        result = Kitsune(transforms).apply_update(program, VersionB())
        assert result.outcome is UpdateOutcome.QUIESCENCE_FAILED
        assert program.version.name == "1.0"

    def test_slow_thread_times_out(self, transforms):
        program = UpdatableProgram(VersionA(), {"table": {}}, threads=[
            ThreadState("slow", reach_update_point_ns=10**12)])
        kitsune = Kitsune(transforms, quiesce_timeout_ns=1_000_000)
        with pytest.raises(QuiescenceTimeout):
            kitsune.quiesce(program)

    def test_transform_failure_aborts_and_reports(self):
        transforms = TransformRegistry()
        transforms.register("toy", "1.0", "2.0",
                            lambda heap: (_ for _ in ()).throw(KeyError("t")))
        program = self.make_program()
        result = Kitsune(transforms).apply_update(program, VersionB())
        assert result.outcome is UpdateOutcome.TRANSFORM_FAILED
        assert program.version.name == "1.0"
        assert "raised" in result.error

    def test_abort_callback_runs_when_invoked(self):
        calls = []
        program = UpdatableProgram(VersionA(), {},
                                   abort_callback=lambda p: calls.append(p))
        program.run_abort_callback()
        assert calls == [program]

    def test_no_abort_callback_is_harmless(self):
        UpdatableProgram(VersionA(), {}).run_abort_callback()
