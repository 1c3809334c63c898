"""The Vsftpd server process and its per-command I/O context."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mve.gateway import SyscallGateway
from repro.servers.base import Server, Session
from repro.servers.vsftpd.versions import VsftpdVersion, vsftpd_version


class VsftpdIO:
    """What a command handler may do mid-request.

    A thin view over the syscall gateway that adds the control-connection
    fd (for 1xx intermediate replies written before data transfers).
    """

    def __init__(self, gateway: SyscallGateway, control_fd: int) -> None:
        self._gateway = gateway
        self.control_fd = control_fd

    def control_write(self, data: bytes) -> None:
        """Write an intermediate reply on the control connection."""
        self._gateway.write(self.control_fd, data)

    # Socket and filesystem operations delegate to the gateway, so a
    # follower's mid-request I/O is replayed exactly like everything else.
    def listen(self, address) -> int:
        return self._gateway.listen(address)

    def connect(self, address) -> int:
        return self._gateway.connect(address)

    def accept(self, listen_fd: int) -> int:
        return self._gateway.accept(listen_fd)

    def read(self, fd: int, max_bytes: Optional[int] = None) -> bytes:
        return self._gateway.read(fd, max_bytes)

    def write(self, fd: int, data: bytes) -> int:
        return self._gateway.write(fd, data)

    def close(self, fd: int) -> None:
        self._gateway.close(fd)

    def fs_read(self, path: str) -> bytes:
        return self._gateway.fs_read(path)

    def fs_write(self, path: str, data: bytes) -> None:
        self._gateway.fs_write(path, data)

    def fs_append_file(self, path: str, data: bytes) -> None:
        self._gateway.fs_append(path, data)

    def fs_stat(self, path: str) -> Optional[int]:
        return self._gateway.fs_stat(path)

    def fs_listdir(self, path: str) -> List[str]:
        return self._gateway.fs_listdir(path)

    def fs_unlink(self, path: str) -> None:
        self._gateway.fs_unlink(path)

    def fs_rename(self, src: str, dst: str) -> None:
        self._gateway.fs_rename(src, dst)

    def fs_mkdir(self, path: str) -> None:
        self._gateway.fs_mkdir(path)

    def fs_rmdir(self, path: str) -> None:
        self._gateway.fs_rmdir(path)

    def fs_is_dir(self, path: str) -> bool:
        return self._gateway.fs_is_dir(path)


class VsftpdServer(Server):
    """FTP server over the shared event-loop skeleton."""

    profile_name = "vsftpd-small"
    io_class = VsftpdIO

    def __init__(self, version: Optional[VsftpdVersion] = None,
                 address: Tuple[str, int] = ("127.0.0.1", 21)) -> None:
        super().__init__(version or vsftpd_version("1.1.0"), address)

    def on_connect(self, session: Session) -> List[bytes]:
        return [self.version.banner()]

