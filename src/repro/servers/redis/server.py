"""The Redis server process: event loop + AOF ordering + seeding."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.mve.gateway import SyscallGateway
from repro.servers.base import Server, Session
from repro.servers.redis.versions import (RedisVersion, Replies,
                                          redis_version)

#: AOF entries carry a sentinel prefix so rewrite rules can target them
#: without colliding with RESP multi-bulk replies (which start with "*").
AOF_PREFIX = b"AOF "
AOF_PATH = "/appendonly.aof"


class RedisServer(Server):
    """Single-threaded Redis over the shared event-loop skeleton."""

    profile_name = "redis"

    def __init__(self, version: Optional[RedisVersion] = None,
                 address: Tuple[str, int] = ("127.0.0.1", 6379), *,
                 aof_enabled: bool = True) -> None:
        super().__init__(version or redis_version("2.0.0"), address)
        self.aof_enabled = aof_enabled

    def _emit_responses(self, gateway: SyscallGateway, session: Session,
                        request: bytes, responses: Replies) -> None:
        """Reply + AOF append, in the order this version uses.

        The 2.0.0/2.0.1 ordering difference lives here: it is the
        syscall-sequence divergence the paper wrote its one Redis DSL
        rule for.
        """
        log_it = self.aof_enabled and responses.logged
        if log_it and self.version.aof_before_reply:
            gateway.fs_append(AOF_PATH, AOF_PREFIX + request + b"\r\n")
        for payload in responses:
            gateway.write(session.fd, payload)
        if log_it and not self.version.aof_before_reply:
            gateway.fs_append(AOF_PATH, AOF_PREFIX + request + b"\r\n")

    def load_snapshot(self, path: str = None) -> bool:
        """Warm the store from an RDB snapshot on the virtual fs.

        Start-up work (like :meth:`attach`) runs outside any MVE stream.
        Returns True when a snapshot existed and was loaded.
        """
        from repro.servers.redis import rdb
        snapshot_path = path or rdb.RDB_PATH
        if self.kernel is None or not self.kernel.fs.exists(snapshot_path):
            return False
        heap = rdb.load(self.kernel.fs.read_file(snapshot_path))
        self.heap = heap
        self.program.heap = heap
        return True

    def seed(self, entries: int, *, value: str = "x" * 16) -> None:
        """Pre-populate the store (Figure 7 uses 1M entries).

        Writes directly into the heap — this models a store warmed before
        the experiment starts, not client traffic.
        """
        db = self.heap["db"]
        for index in range(entries):
            db[f"key:{index:09d}"] = ("string", value)
