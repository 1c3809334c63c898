"""Redis code versions 2.0.0 – 2.0.3.

Cross-version deltas modelled (paper §5.2):

* **2.0.0 -> 2.0.1** reverses the order of two syscalls when handling
  write commands: 2.0.0 replies to the client then appends to the AOF,
  2.0.1 appends first.  This needs exactly one DSL rule per direction.
* The **HMGET wrong-type crash** (revision 7fb16bac) ships in every
  version; ``with_hmget_bug=False`` builds a version without the
  offending revision, which is how the paper stages the new-code-error
  experiment (start 2.0.0 without it, update to 2.0.1 with it).
* 2.0.1 -> 2.0.2 -> 2.0.3 are internal bug-fix releases with no visible
  protocol or syscall-sequence changes (zero rules, identity transforms).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.dsu.version import ServerVersion
from repro.servers.redis import commands
from repro.servers.redis.resp import OK as _RESP_OK
from repro.servers.redis.resp import error as resp_error


def resp_ok() -> bytes:
    return _RESP_OK


_QUEUED = b"+QUEUED\r\n"
_TRANSACTION_VERBS = frozenset({"MULTI", "DISCARD", "EXEC"})
#: EXEC is logged as a whole (its queued commands may include writes),
#: which keeps the AOF stream identical across versions.
LOGGED_VERBS = commands.WRITE_VERBS | {"EXEC"}


class Replies(list):
    """What :meth:`RedisVersion.handle` returns: the reply payloads, plus
    ``logged`` — whether the request must hit the AOF, decided where the
    verb was parsed so the server need not parse it again.  An override
    of ``handle`` returns one too: ``RedisServer`` reads ``logged``."""

    __slots__ = ("logged",)


class RedisVersion(ServerVersion):
    """One Redis release."""

    app = "redis"

    def __init__(self, name: str, *, aof_before_reply: bool,
                 hmget_bug: bool = True) -> None:
        self.name = name
        #: 2.0.1+ appends to the AOF before replying to the client.
        self.aof_before_reply = aof_before_reply
        self._ctx = {"hmget_bug": hmget_bug}

    @property
    def has_hmget_bug(self) -> bool:
        return self._ctx["hmget_bug"]

    def initial_heap(self) -> Dict[str, Any]:
        return commands.initial_heap()

    def commands(self):
        return frozenset(commands.COMMANDS)

    def heap_entries(self, heap) -> int:
        return len(heap["db"])

    def handle(self, heap, request: bytes, session=None, io=None) -> Replies:
        """One reply payload per request; the verb is parsed here, once."""
        verb, args = commands.parse(request)
        if session is not None and (
                verb in _TRANSACTION_VERBS
                or session.get("multi_queue") is not None):
            payload = self._handle_transaction(heap, verb, request, session,
                                               io)
        else:
            payload = commands.run(heap, verb, args, self._ctx, io)
        replies = Replies((payload,))
        replies.logged = verb in LOGGED_VERBS and payload is not _QUEUED
        return replies

    def _handle_transaction(self, heap, verb: str, request: bytes, session,
                            io) -> bytes:
        """MULTI/EXEC/DISCARD (present since Redis 1.2), and every
        command while a transaction is open.

        Queued commands live in *session* state — control state in the
        DSU sense: a transaction opened before a dynamic update can be
        EXECed after it, because Kitsune migrates sessions.
        """
        queued = session.get("multi_queue")
        if verb == "MULTI":
            if queued is not None:
                return resp_error("MULTI calls can not be nested")
            session["multi_queue"] = []
            return resp_ok()
        if verb == "DISCARD":
            if queued is None:
                return resp_error("DISCARD without MULTI")
            session.pop("multi_queue")
            return resp_ok()
        if verb == "EXEC":
            if queued is None:
                return resp_error("EXEC without MULTI")
            session.pop("multi_queue")
            replies = [commands.dispatch(heap, line, self._ctx, io)
                       for line in queued]
            return (b"*" + str(len(replies)).encode() + b"\r\n"
                    + b"".join(replies))
        queued.append(request)
        return _QUEUED

    def is_write(self, request: bytes) -> bool:
        """True when the command mutates state (and must hit the AOF)."""
        return commands.parse(request)[0] in LOGGED_VERBS


def redis_version(name: str, *, hmget_bug: bool = True) -> RedisVersion:
    """Build one of the four known releases."""
    if name not in REDIS_VERSIONS:
        raise ValueError(f"unknown redis version {name!r}")
    return RedisVersion(name, aof_before_reply=(name != "2.0.0"),
                        hmget_bug=hmget_bug)


#: Release order, matching the paper's evaluation set.
REDIS_VERSIONS = ("2.0.0", "2.0.1", "2.0.2", "2.0.3")


def redis_registry(*, hmget_bug: bool = True):
    """All four releases in a :class:`~repro.dsu.version.VersionRegistry`."""
    from repro.dsu.version import VersionRegistry
    registry = VersionRegistry()
    for name in REDIS_VERSIONS:
        registry.register(redis_version(name, hmget_bug=hmget_bug))
    return registry
