"""Coverage for small shared modules: errors, events, divergence."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    ConnectionClosed,
    DivergenceError,
    DslSyntaxError,
    FileNotFound,
    KernelError,
    NoUpdatePath,
    QuiescenceTimeout,
    ReproError,
    RuleError,
    ServerCrash,
    SimulationError,
    StateTransformError,
    UpdateError,
)
from repro.mve import ControlEvent, ControlKind
from repro.mve.divergence import check_drained, check_match, divergence_message
from repro.syscalls.model import Sys, SyscallRecord, read_record, write_record


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (SimulationError, KernelError, ServerCrash,
                         UpdateError, DivergenceError, RuleError):
            assert issubclass(exc_type, ReproError)

    def test_kernel_error_family(self):
        for exc_type in (BadFileDescriptor, ConnectionClosed, FileNotFound):
            assert issubclass(exc_type, KernelError)

    def test_update_error_family(self):
        for exc_type in (QuiescenceTimeout, StateTransformError,
                         NoUpdatePath):
            assert issubclass(exc_type, UpdateError)

    def test_dsl_error_family(self):
        assert issubclass(DslSyntaxError, RuleError)

    def test_server_crash_carries_pid(self):
        crash = ServerCrash("boom", pid=42)
        assert crash.pid == 42
        assert "boom" in str(crash)

    def test_divergence_carries_both_sides(self):
        expected = write_record(1, b"a")
        actual = write_record(1, b"b")
        error = DivergenceError("mismatch", expected=expected,
                                actual=actual)
        assert error.expected is expected
        assert error.actual is actual


class TestControlEvents:
    def test_kinds(self):
        # Promotion is the one control event the ring carries.
        assert [kind.value for kind in ControlKind] == ["promote"]

    def test_describe(self):
        assert ControlEvent(ControlKind.PROMOTE).describe() == \
            "<control:promote>"

    def test_frozen(self):
        event = ControlEvent(ControlKind.PROMOTE)
        with pytest.raises(Exception):
            event.at = 1


class TestDivergenceChecks:
    def test_match_passes_silently(self):
        record = write_record(3, b"same")
        check_match(record, write_record(3, b"same"))

    def test_mismatch_report_describes_both_sides(self):
        with pytest.raises(DivergenceError) as excinfo:
            check_match(write_record(3, b"expected"),
                        write_record(3, b"actual"))
        message = str(excinfo.value)
        assert "expected" in message and "actual" in message

    def test_none_expected_is_extra_syscall(self):
        with pytest.raises(DivergenceError, match="extra"):
            check_match(None, read_record(1, b"x"))

    def test_drained_ok_when_empty(self):
        check_drained(None)

    def test_leftover_is_fewer_syscalls(self):
        with pytest.raises(DivergenceError, match="fewer"):
            check_drained(write_record(1, b"missing"))

    def test_wildcard_matches_same_kind_only(self):
        wildcard = SyscallRecord(Sys.WRITE, fd=9, aux={"wildcard": True})
        check_match(wildcard, write_record(1, b"anything"))
        with pytest.raises(DivergenceError):
            check_match(wildcard, read_record(1, b"not a write"))

    def test_report_describe(self):
        text = divergence_message("syscall mismatch", write_record(1, b"a"),
                                  write_record(1, b"b"))
        assert "syscall mismatch" in text
        assert "leader expected" in text

    def test_report_with_missing_sides(self):
        assert "<nothing>" in divergence_message(
            "extra", None, write_record(1, b"x"))
