"""A small virtual filesystem.

Vsftpd's data transfers (RETR/STOR/STOU), Redis's RDB snapshots, and the
fault-injection experiments all read and write files here.  Mirroring the
paper's observation about Varan, the filesystem is *shared* between MVE
versions: there is one namespace per :class:`VirtualFilesystem`, not one
per process — which is exactly why Vsftpd's STOU divergence is tolerable
(§5.1 of the paper).
"""

from __future__ import annotations

import posixpath
from functools import lru_cache
from typing import Dict, List, Union

from repro.errors import FileNotFound, KernelError


# Memoised: a server names the same few paths over and over (Redis's
# AOF on every append), and a hit is a C call with no ``normpath``.
@lru_cache(maxsize=1024)
def _normalise(path: str) -> str:
    if not path.startswith("/"):
        path = "/" + path
    normalised = posixpath.normpath(path)
    # POSIX preserves exactly two leading slashes; collapse them here so
    # "//f" and "/f" name the same file.
    if normalised.startswith("//"):
        normalised = normalised[1:]
    return normalised


class VirtualFilesystem:
    """Flat file store with directory bookkeeping."""

    def __init__(self) -> None:
        #: ``bytes``; a ``bytearray`` between an append and the next read,
        #: so a run of appends costs amortised O(len(data)) each.
        self._files: Dict[str, Union[bytes, bytearray]] = {}
        self._dirs: Dict[str, None] = {"/": None}

    # -- directories ------------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Create a directory; parents must already exist."""
        path = _normalise(path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise FileNotFound(f"no such directory: {parent}")
        if path in self._dirs:
            raise KernelError(f"directory exists: {path}")
        self._dirs[path] = None

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        path = _normalise(path)
        if path == "/":
            raise KernelError("cannot remove root")
        if path not in self._dirs:
            raise FileNotFound(f"no such directory: {path}")
        if any(name.startswith(path + "/") for name in self._files):
            raise KernelError(f"directory not empty: {path}")
        if any(d != path and d.startswith(path + "/") for d in self._dirs):
            raise KernelError(f"directory not empty: {path}")
        del self._dirs[path]

    def is_dir(self, path: str) -> bool:
        """True if ``path`` names a directory."""
        return _normalise(path) in self._dirs

    # -- files -------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create or overwrite a file."""
        path = _normalise(path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise FileNotFound(f"no such directory: {parent}")
        self._files[path] = bytes(data)

    def append_file(self, path: str, data: bytes) -> None:
        """Append to a file, creating it if absent."""
        path = _normalise(path)
        stored = self._files.get(path)
        if stored is None:
            self.write_file(path, data)
            return
        if type(stored) is bytes:
            stored = self._files[path] = bytearray(stored)
        stored += data

    def read_file(self, path: str) -> bytes:
        """Full contents of a file."""
        path = _normalise(path)
        stored = self._files.get(path)
        if stored is None:
            raise FileNotFound(f"no such file: {path}")
        if type(stored) is not bytes:
            stored = self._files[path] = bytes(stored)
        return stored

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file."""
        return _normalise(path) in self._files

    def size(self, path: str) -> int:
        """File size in bytes."""
        return len(self.read_file(path))

    def unlink(self, path: str) -> None:
        """Remove a file."""
        path = _normalise(path)
        if path not in self._files:
            raise FileNotFound(f"no such file: {path}")
        del self._files[path]

    def rename(self, src: str, dst: str) -> None:
        """Atomically move a file."""
        src, dst = _normalise(src), _normalise(dst)
        if src not in self._files:
            raise FileNotFound(f"no such file: {src}")
        parent = posixpath.dirname(dst)
        if parent not in self._dirs:
            raise FileNotFound(f"no such directory: {parent}")
        self._files[dst] = self._files.pop(src)

    def listdir(self, path: str) -> List[str]:
        """Names (not paths) of entries directly inside ``path``."""
        path = _normalise(path)
        if path not in self._dirs:
            raise FileNotFound(f"no such directory: {path}")
        prefix = path if path.endswith("/") else path + "/"
        names = set()
        for file_path in self._files:
            if file_path.startswith(prefix):
                rest = file_path[len(prefix):]
                names.add(rest.split("/", 1)[0])
        for dir_path in self._dirs:
            if dir_path != path and dir_path.startswith(prefix):
                rest = dir_path[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)
