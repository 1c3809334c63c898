"""Unit tests for syscall records and trace signatures."""

import pytest

from repro.syscalls import Sys, SyscallRecord, trace_signature
from repro.syscalls.model import (DATA_BEARING, EMPTY_AUX, read_record,
                                  write_record)


def test_matching_records_compare_equal():
    a = SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n")
    b = SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n", result=5)
    # Result is replayed, not compared.
    assert a.matches(b)


def test_data_mismatch_detected():
    a = SyscallRecord(Sys.WRITE, fd=4, data=b"+OK\r\n")
    b = SyscallRecord(Sys.WRITE, fd=4, data=b"-ERR\r\n")
    assert not a.matches(b)


def test_fd_mismatch_detected():
    a = SyscallRecord(Sys.WRITE, fd=4, data=b"x")
    assert not a.matches(a.with_fd(5))


def test_name_mismatch_detected():
    a = SyscallRecord(Sys.READ, fd=4, data=b"x")
    b = SyscallRecord(Sys.WRITE, fd=4, data=b"x")
    assert not a.matches(b)


def test_non_data_bearing_syscalls_ignore_payload():
    a = SyscallRecord(Sys.EPOLL_WAIT, fd=3, data=b"whatever")
    b = SyscallRecord(Sys.EPOLL_WAIT, fd=3)
    assert a.matches(b)


def test_with_data_preserves_identity_fields():
    a = SyscallRecord(Sys.WRITE, fd=9, data=b"old", result=3)
    b = a.with_data(b"new")
    assert b.fd == 9 and b.name is Sys.WRITE and b.data == b"new"


def test_trace_signature_is_order_sensitive():
    r1 = read_record(4, b"GET k\r\n")
    r2 = write_record(4, b"$1\r\nv\r\n")
    assert trace_signature([r1, r2]) != trace_signature([r2, r1])


def test_convenience_constructors_set_result():
    assert read_record(3, b"abc").result == 3
    assert write_record(3, b"abcd").result == 4


def test_describe_truncates_long_payloads():
    record = write_record(1, b"x" * 100)
    assert "..." in record.describe()
    assert Sys.WRITE.value in record.describe()


# -- value semantics ---------------------------------------------------------------
# Records are plain immutable values: what follows is the surface every
# layer (rules, ring, wire codec, forensics) relies on.

FULL = dict(name=Sys.WRITE, fd=4, data=b"abc", result=3, aux={"error": "EPIPE"})


def test_positional_and_keyword_construction_agree():
    positional = SyscallRecord(Sys.WRITE, 4, b"abc", 3, FULL["aux"])
    assert positional == SyscallRecord(**FULL)
    assert (positional.name, positional.fd, positional.data,
            positional.result, positional.aux) \
        == (Sys.WRITE, 4, b"abc", 3, {"error": "EPIPE"})


def test_defaults():
    record = SyscallRecord(Sys.CLOSE)
    assert (record.fd, record.data, record.result) == (-1, b"", None)
    assert record.aux == {} and record.aux is EMPTY_AUX
    # One shared, read-only mapping — never a per-record dict.
    assert SyscallRecord(Sys.READ, fd=3).aux is EMPTY_AUX
    with pytest.raises(TypeError):
        record.aux["wildcard"] = True


@pytest.mark.parametrize("field, other", [
    ("name", Sys.READ), ("fd", 5), ("data", b"abd"), ("result", 4),
    ("aux", {"error": "ECONNRESET"}),
])
def test_equality_is_over_all_five_fields(field, other):
    assert SyscallRecord(**FULL) == SyscallRecord(**FULL)
    assert SyscallRecord(**FULL) != SyscallRecord(**{**FULL, field: other})


def test_repr_names_every_field():
    # The text forensics falls back to for objects without describe().
    assert repr(SyscallRecord(Sys.READ, fd=3, data=b"x", result=1)) == (
        "SyscallRecord(name=<Sys.READ: 'read'>, fd=3, data=b'x', result=1, "
        "aux=mappingproxy({}))")


@pytest.mark.parametrize("field", ["name", "fd", "data", "result", "aux",
                                   "extra"])
def test_records_are_immutable(field):
    record = SyscallRecord(**FULL)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    assert record == SyscallRecord(**FULL)


def test_with_data_and_with_fd_copy_everything_else():
    original = SyscallRecord(**FULL)
    assert original.with_data(b"xyz") == SyscallRecord(
        **{**FULL, "data": b"xyz"})
    assert original.with_fd(9) == SyscallRecord(**{**FULL, "fd": 9})
    assert original.with_data(b"xyz").aux is original.aux
    assert original == SyscallRecord(**FULL)


def test_key_carries_the_payload_only_for_data_bearing_syscalls():
    for name in Sys:
        record = SyscallRecord(name, fd=7, data=b"payload", result=1)
        payload = b"payload" if name in DATA_BEARING else b""
        assert record.key() == (name, 7, payload)
    assert DATA_BEARING == {Sys.READ, Sys.WRITE, Sys.OPEN, Sys.UNLINK,
                            Sys.RENAME, Sys.STAT, Sys.MKDIR, Sys.RMDIR,
                            Sys.CONNECT}
