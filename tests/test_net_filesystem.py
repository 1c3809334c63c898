"""Unit tests for the virtual filesystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileNotFound, KernelError
from repro.net import VirtualFilesystem


@pytest.fixture
def fs():
    return VirtualFilesystem()


def test_write_read_round_trip(fs):
    fs.write_file("/motd", b"welcome")
    assert fs.read_file("/motd") == b"welcome"
    assert fs.exists("/motd")
    assert fs.size("/motd") == 7


def test_paths_are_normalised(fs):
    fs.write_file("data.bin", b"x")
    assert fs.read_file("/data.bin") == b"x"
    assert fs.read_file("//data.bin") == b"x"


def test_overwrite_replaces_contents(fs):
    fs.write_file("/f", b"old")
    fs.write_file("/f", b"new")
    assert fs.read_file("/f") == b"new"


def test_append_creates_then_extends(fs):
    fs.append_file("/log", b"a")
    fs.append_file("/log", b"b")
    assert fs.read_file("/log") == b"ab"


def test_read_missing_file_raises(fs):
    with pytest.raises(FileNotFound):
        fs.read_file("/nope")


def test_unlink_removes_file(fs):
    fs.write_file("/f", b"x")
    fs.unlink("/f")
    assert not fs.exists("/f")
    with pytest.raises(FileNotFound):
        fs.unlink("/f")


def test_rename_moves_contents(fs):
    fs.write_file("/src", b"payload")
    fs.rename("/src", "/dst")
    assert not fs.exists("/src")
    assert fs.read_file("/dst") == b"payload"


def test_rename_missing_raises(fs):
    with pytest.raises(FileNotFound):
        fs.rename("/a", "/b")


def test_mkdir_and_listdir(fs):
    fs.mkdir("/pub")
    fs.write_file("/pub/a.txt", b"1")
    fs.write_file("/pub/b.txt", b"2")
    fs.mkdir("/pub/sub")
    assert fs.listdir("/pub") == ["a.txt", "b.txt", "sub"]
    assert fs.listdir("/") == ["pub"]


def test_mkdir_requires_parent(fs):
    with pytest.raises(FileNotFound):
        fs.mkdir("/a/b")


def test_mkdir_duplicate_raises(fs):
    fs.mkdir("/d")
    with pytest.raises(KernelError):
        fs.mkdir("/d")


def test_write_requires_parent_dir(fs):
    with pytest.raises(FileNotFound):
        fs.write_file("/missing/f", b"x")


def test_rmdir_only_when_empty(fs):
    fs.mkdir("/d")
    fs.write_file("/d/f", b"x")
    with pytest.raises(KernelError, match="not empty"):
        fs.rmdir("/d")
    fs.unlink("/d/f")
    fs.rmdir("/d")
    assert not fs.is_dir("/d")


def test_rmdir_root_forbidden(fs):
    with pytest.raises(KernelError):
        fs.rmdir("/")


def test_listdir_missing_raises(fs):
    with pytest.raises(FileNotFound):
        fs.listdir("/nope")


# ---------------------------------------------------------------------------
# Model-based: any interleaving behaves like a dict of immutable bytes
# ---------------------------------------------------------------------------

_paths = st.sampled_from(["/a", "/b", "/log", "/d/x"])
_payloads = st.one_of(st.binary(max_size=12),
                      st.binary(max_size=12).map(bytearray))
_fs_ops = st.one_of(
    st.tuples(st.sampled_from(["write", "append"]), _paths, _payloads),
    st.tuples(st.sampled_from(["read", "size", "unlink", "exists"]),
              _paths),
    st.tuples(st.just("rename"), _paths, _paths))


@settings(max_examples=300, deadline=None)
@given(st.lists(_fs_ops, max_size=40))
def test_filesystem_matches_a_dict_of_bytes_model(ops):
    fs = VirtualFilesystem()
    fs.mkdir("/d")
    model = {}
    handed_out = []  # (bytes object returned earlier, its value then)
    for op, path, *rest in ops:
        if op == "write":
            fs.write_file(path, rest[0])
            model[path] = bytes(rest[0])
        elif op == "append":
            fs.append_file(path, rest[0])
            model[path] = model.get(path, b"") + bytes(rest[0])
        elif op == "exists":
            assert fs.exists(path) == (path in model)
        elif path not in model:
            with pytest.raises(FileNotFound):
                if op == "rename":
                    fs.rename(path, rest[0])
                else:
                    getattr(fs, {"read": "read_file"}.get(op, op))(path)
        elif op == "read":
            data = fs.read_file(path)
            assert type(data) is bytes and data == model[path]
            handed_out.append((data, model[path]))
        elif op == "size":
            assert fs.size(path) == len(model[path])
        elif op == "unlink":
            fs.unlink(path)
            del model[path]
        elif op == "rename":
            fs.rename(path, rest[0])
            model[rest[0]] = model.pop(path)
    for path in ("/a", "/b", "/log", "/d/x"):
        assert fs.exists(path) == (path in model)
        if path in model:
            assert fs.size(path) == len(model[path])
            assert fs.read_file(path) == model[path]
    # A later append never reaches into bytes a reader already holds.
    for data, value in handed_out:
        assert data == value


def test_appends_do_not_recopy_the_file():
    """The AOF pattern: many small appends, no reads in between.  The
    stored buffer must stay one growing object, not be rebuilt each time
    (that made a run of n appends O(n^2))."""
    fs = VirtualFilesystem()
    fs.append_file("/aof", b"seed")
    fs.append_file("/aof", b"-1")
    buffer = fs._files["/aof"]
    for index in range(100):
        fs.append_file("/aof", b"x")
        assert fs._files["/aof"] is buffer
    assert fs.read_file("/aof") == b"seed-1" + b"x" * 100
    assert fs.size("/aof") == 106
