"""Redis command implementations.

The heap layout is ``{"db": {key: (type_tag, value)}, "ttls": {key: n}}``
where the type tag is one of ``string``/``list``/``set``/``hash``.  Sets
and hashes use dicts so iteration order is deterministic — a requirement
for MVE (two identical versions must emit byte-identical replies).

TTLs are logical: ``EXPIRE`` stores the requested lifetime and ``TTL``
reads it back; nothing decays with virtual time.  This keeps every
command a pure function of (heap, arguments), which determinism under
replay requires, and none of the paper's experiments exercise expiry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServerCrash
from repro.servers.redis import resp

Heap = Dict[str, Any]

STRING, LIST, SET, HASH = "string", "list", "set", "hash"


def initial_heap() -> Heap:
    """A fresh, empty database."""
    return {"db": {}, "ttls": {}}


def _lookup(heap: Heap, key: str, expected: str):
    """Fetch ``key``'s value if it holds ``expected``; raises WrongType."""
    entry = heap["db"].get(key)
    if entry is None:
        return None
    tag, value = entry
    if tag != expected:
        raise WrongType()
    return value


class WrongType(Exception):
    """Operation against a key holding the wrong kind of value."""


# ---------------------------------------------------------------------------
# Command handlers.  Each takes (heap, args, ctx) and returns reply bytes.
# ``ctx`` carries version-specific switches (the HMGET bug flag).
# ---------------------------------------------------------------------------


def cmd_ping(heap, args, ctx):
    return resp.PONG


def cmd_echo(heap, args, ctx):
    return resp.bulk(args[0].encode("latin-1"))


def cmd_set(heap, args, ctx):
    heap["db"][args[0]] = (STRING, " ".join(args[1:]))
    return resp.OK


def cmd_setnx(heap, args, ctx):
    if args[0] in heap["db"]:
        return resp.integer(0)
    heap["db"][args[0]] = (STRING, " ".join(args[1:]))
    return resp.integer(1)


def cmd_get(heap, args, ctx):
    value = _lookup(heap, args[0], STRING)
    if value is None:
        return resp.bulk(None)
    return resp.bulk(value.encode("latin-1"))


def cmd_getset(heap, args, ctx):
    old = _lookup(heap, args[0], STRING)
    heap["db"][args[0]] = (STRING, " ".join(args[1:]))
    return resp.bulk(None if old is None else old.encode("latin-1"))


def cmd_append(heap, args, ctx):
    old = _lookup(heap, args[0], STRING) or ""
    value = old + " ".join(args[1:])
    heap["db"][args[0]] = (STRING, value)
    return resp.integer(len(value))


def cmd_del(heap, args, ctx):
    removed = 0
    for key in args:
        if heap["db"].pop(key, None) is not None:
            removed += 1
        heap["ttls"].pop(key, None)
    return resp.integer(removed)


def cmd_exists(heap, args, ctx):
    return resp.integer(1 if args[0] in heap["db"] else 0)


def cmd_type(heap, args, ctx):
    entry = heap["db"].get(args[0])
    if entry is None:
        return resp.simple("none")
    return resp.simple(entry[0])


#: The reply to an argument or a stored value that is not an integer.
NOT_AN_INTEGER = resp.error("value is not an integer or out of range")


def _integer(text: str) -> Optional[int]:
    """``text`` as an integer, or None when it is not one."""
    try:
        return int(text)
    except ValueError:
        return None


def _incr_by(heap, key, delta):
    value = _lookup(heap, key, STRING)
    if value is None:
        current = 0
    else:
        current = _integer(value)
        if current is None:
            return NOT_AN_INTEGER
    current += delta
    heap["db"][key] = (STRING, str(current))
    return resp.integer(current)


def cmd_incr(heap, args, ctx):
    return _incr_by(heap, args[0], 1)


def cmd_decr(heap, args, ctx):
    return _incr_by(heap, args[0], -1)


def cmd_incrby(heap, args, ctx):
    delta = _integer(args[1])
    if delta is None:
        return NOT_AN_INTEGER
    return _incr_by(heap, args[0], delta)


def cmd_decrby(heap, args, ctx):
    delta = _integer(args[1])
    if delta is None:
        return NOT_AN_INTEGER
    return _incr_by(heap, args[0], -delta)


def cmd_keys(heap, args, ctx):
    pattern = args[0]
    if pattern == "*":
        keys = list(heap["db"])
    else:
        prefix = pattern.rstrip("*")
        keys = [k for k in heap["db"] if k.startswith(prefix)]
    return resp.multi_bulk(k.encode("latin-1") for k in sorted(keys))


def cmd_dbsize(heap, args, ctx):
    return resp.integer(len(heap["db"]))


def cmd_flushdb(heap, args, ctx):
    heap["db"].clear()
    heap["ttls"].clear()
    return resp.OK


def cmd_expire(heap, args, ctx):
    seconds = _integer(args[1])
    if seconds is None:
        return NOT_AN_INTEGER
    if args[0] not in heap["db"]:
        return resp.integer(0)
    heap["ttls"][args[0]] = seconds
    return resp.integer(1)


def cmd_ttl(heap, args, ctx):
    if args[0] not in heap["db"]:
        return resp.integer(-2)
    return resp.integer(heap["ttls"].get(args[0], -1))


def cmd_persist(heap, args, ctx):
    return resp.integer(1 if heap["ttls"].pop(args[0], None) is not None else 0)


def cmd_rename(heap, args, ctx):
    src, dst = args[0], args[1]
    if src not in heap["db"]:
        return resp.error("no such key")
    heap["db"][dst] = heap["db"].pop(src)
    if src in heap["ttls"]:
        heap["ttls"][dst] = heap["ttls"].pop(src)
    return resp.OK


# -- lists -------------------------------------------------------------------


def _get_list(heap, key) -> Optional[List[str]]:
    return _lookup(heap, key, LIST)


def cmd_lpush(heap, args, ctx):
    values = _get_list(heap, args[0])
    if values is None:
        values = []
        heap["db"][args[0]] = (LIST, values)
    values.insert(0, " ".join(args[1:]))
    return resp.integer(len(values))


def cmd_rpush(heap, args, ctx):
    values = _get_list(heap, args[0])
    if values is None:
        values = []
        heap["db"][args[0]] = (LIST, values)
    values.append(" ".join(args[1:]))
    return resp.integer(len(values))


def cmd_lpop(heap, args, ctx):
    values = _get_list(heap, args[0])
    if not values:
        return resp.bulk(None)
    return resp.bulk(values.pop(0).encode("latin-1"))


def cmd_rpop(heap, args, ctx):
    values = _get_list(heap, args[0])
    if not values:
        return resp.bulk(None)
    return resp.bulk(values.pop().encode("latin-1"))


def cmd_llen(heap, args, ctx):
    values = _get_list(heap, args[0])
    return resp.integer(0 if values is None else len(values))


def cmd_lrange(heap, args, ctx):
    start, stop = _integer(args[1]), _integer(args[2])
    if start is None or stop is None:
        return NOT_AN_INTEGER
    values = _get_list(heap, args[0]) or []
    if stop == -1:
        stop = len(values) - 1
    window = values[start:stop + 1]
    return resp.multi_bulk(v.encode("latin-1") for v in window)


def cmd_lindex(heap, args, ctx):
    index = _integer(args[1])
    if index is None:
        return NOT_AN_INTEGER
    values = _get_list(heap, args[0]) or []
    if -len(values) <= index < len(values):
        return resp.bulk(values[index].encode("latin-1"))
    return resp.bulk(None)


# -- sets --------------------------------------------------------------------


def _get_set(heap, key) -> Optional[Dict[str, None]]:
    return _lookup(heap, key, SET)


def cmd_sadd(heap, args, ctx):
    members = _get_set(heap, args[0])
    if members is None:
        members = {}
        heap["db"][args[0]] = (SET, members)
    added = 0
    for member in args[1:]:
        if member not in members:
            members[member] = None
            added += 1
    return resp.integer(added)


def cmd_srem(heap, args, ctx):
    members = _get_set(heap, args[0])
    if members is None:
        return resp.integer(0)
    removed = 0
    for member in args[1:]:
        if members.pop(member, 0) is None:
            removed += 1
    return resp.integer(removed)


def cmd_sismember(heap, args, ctx):
    members = _get_set(heap, args[0]) or {}
    return resp.integer(1 if args[1] in members else 0)


def cmd_scard(heap, args, ctx):
    members = _get_set(heap, args[0]) or {}
    return resp.integer(len(members))


def cmd_smembers(heap, args, ctx):
    members = _get_set(heap, args[0]) or {}
    return resp.multi_bulk(m.encode("latin-1") for m in sorted(members))


# -- hashes ------------------------------------------------------------------


def _get_hash(heap, key) -> Optional[Dict[str, str]]:
    return _lookup(heap, key, HASH)


def cmd_hset(heap, args, ctx):
    fields = _get_hash(heap, args[0])
    created = 0
    if fields is None:
        fields = {}
        heap["db"][args[0]] = (HASH, fields)
    if args[1] not in fields:
        created = 1
    fields[args[1]] = " ".join(args[2:])
    return resp.integer(created)


def cmd_hget(heap, args, ctx):
    fields = _get_hash(heap, args[0]) or {}
    value = fields.get(args[1])
    return resp.bulk(None if value is None else value.encode("latin-1"))


def cmd_hmget(heap, args, ctx):
    """HMGET key field [field ...].

    Revision 7fb16bac introduced a crash when the key holds a non-hash
    value (paper §6.2, "Error in the New Code").  Versions carrying the
    bug dereference a bad pointer; fixed versions answer WRONGTYPE.
    """
    entry = heap["db"].get(args[0])
    if entry is not None and entry[0] != HASH:
        if ctx.get("hmget_bug", False):
            raise ServerCrash(
                "HMGET dereferenced a non-hash object (rev 7fb16bac)")
        return resp.WRONG_TYPE
    fields = {} if entry is None else entry[1]
    return resp.multi_bulk(
        None if fields.get(f) is None else fields[f].encode("latin-1")
        for f in args[1:])


def cmd_hdel(heap, args, ctx):
    fields = _get_hash(heap, args[0])
    if fields is None:
        return resp.integer(0)
    return resp.integer(1 if fields.pop(args[1], None) is not None else 0)


def cmd_hlen(heap, args, ctx):
    fields = _get_hash(heap, args[0]) or {}
    return resp.integer(len(fields))


def cmd_hkeys(heap, args, ctx):
    fields = _get_hash(heap, args[0]) or {}
    return resp.multi_bulk(f.encode("latin-1") for f in fields)


def cmd_hexists(heap, args, ctx):
    fields = _get_hash(heap, args[0]) or {}
    return resp.integer(1 if args[1] in fields else 0)


def cmd_mset(heap, args, ctx):
    if len(args) % 2 != 0:
        return resp.error("wrong number of arguments for 'mset' command")
    for index in range(0, len(args), 2):
        heap["db"][args[index]] = (STRING, args[index + 1])
    return resp.OK


def cmd_mget(heap, args, ctx):
    values = []
    for key in args:
        entry = heap["db"].get(key)
        if entry is None or entry[0] != STRING:
            values.append(None)  # wrong-type keys read as nil in MGET
        else:
            values.append(entry[1].encode("latin-1"))
    return resp.multi_bulk(values)


def cmd_setex(heap, args, ctx):
    seconds = _integer(args[1])
    if seconds is None:
        return NOT_AN_INTEGER
    if seconds <= 0:
        return resp.error("invalid expire time in setex")
    heap["db"][args[0]] = (STRING, " ".join(args[2:]))
    heap["ttls"][args[0]] = seconds
    return resp.OK


# -- persistence ---------------------------------------------------------------


def cmd_save(heap, args, ctx):
    """Synchronous RDB snapshot to the virtual filesystem."""
    from repro.servers.redis import rdb
    io = ctx.get("io")
    if io is None:
        return resp.error("persistence unavailable (no I/O context)")
    io.fs_write(rdb.RDB_PATH, rdb.dump(heap))
    return resp.OK


def cmd_bgsave(heap, args, ctx):
    """Background snapshot (instantaneous in the simulation)."""
    from repro.servers.redis import rdb
    io = ctx.get("io")
    if io is None:
        return resp.error("persistence unavailable (no I/O context)")
    io.fs_write(rdb.RDB_PATH, rdb.dump(heap))
    return resp.simple("Background saving started")


# ---------------------------------------------------------------------------
# Command table: verb -> (handler, min_args, is_write)
# ---------------------------------------------------------------------------

Handler = Callable[[Heap, List[str], Dict[str, Any]], bytes]

COMMANDS: Dict[str, Tuple[Handler, int, bool]] = {
    "PING": (cmd_ping, 0, False),
    "ECHO": (cmd_echo, 1, False),
    "SET": (cmd_set, 2, True),
    "SETNX": (cmd_setnx, 2, True),
    "GET": (cmd_get, 1, False),
    "GETSET": (cmd_getset, 2, True),
    "APPEND": (cmd_append, 2, True),
    "DEL": (cmd_del, 1, True),
    "EXISTS": (cmd_exists, 1, False),
    "TYPE": (cmd_type, 1, False),
    "INCR": (cmd_incr, 1, True),
    "DECR": (cmd_decr, 1, True),
    "INCRBY": (cmd_incrby, 2, True),
    "DECRBY": (cmd_decrby, 2, True),
    "KEYS": (cmd_keys, 1, False),
    "DBSIZE": (cmd_dbsize, 0, False),
    "FLUSHDB": (cmd_flushdb, 0, True),
    "EXPIRE": (cmd_expire, 2, True),
    "TTL": (cmd_ttl, 1, False),
    "PERSIST": (cmd_persist, 1, True),
    "RENAME": (cmd_rename, 2, True),
    "LPUSH": (cmd_lpush, 2, True),
    "RPUSH": (cmd_rpush, 2, True),
    "LPOP": (cmd_lpop, 1, True),
    "RPOP": (cmd_rpop, 1, True),
    "LLEN": (cmd_llen, 1, False),
    "LRANGE": (cmd_lrange, 3, False),
    "LINDEX": (cmd_lindex, 2, False),
    "SADD": (cmd_sadd, 2, True),
    "SREM": (cmd_srem, 2, True),
    "SISMEMBER": (cmd_sismember, 2, False),
    "SCARD": (cmd_scard, 1, False),
    "SMEMBERS": (cmd_smembers, 1, False),
    "HSET": (cmd_hset, 3, True),
    "HGET": (cmd_hget, 2, False),
    "HMGET": (cmd_hmget, 2, False),
    "HDEL": (cmd_hdel, 2, True),
    "HLEN": (cmd_hlen, 1, False),
    "HKEYS": (cmd_hkeys, 1, False),
    "HEXISTS": (cmd_hexists, 2, False),
    "MSET": (cmd_mset, 2, True),
    "MGET": (cmd_mget, 1, False),
    "SETEX": (cmd_setex, 3, True),
    "SAVE": (cmd_save, 0, False),
    "BGSAVE": (cmd_bgsave, 0, False),
}


#: Verbs whose commands mutate the database (and hence hit the AOF).
WRITE_VERBS = frozenset(verb for verb, entry in COMMANDS.items() if entry[2])


def parse(request: bytes) -> Tuple[str, List[str]]:
    """``(VERB, args)`` of one inline command: the one place a request
    is decoded and its verb upper-cased."""
    parts = request.decode("latin-1").split(" ")
    return parts[0].upper(), parts[1:]


def run(heap: Heap, verb: str, args: List[str], ctx: Dict[str, Any],
        io: Optional[Any] = None) -> bytes:
    """Run one parsed command.  Returns the RESP reply.

    ``io`` (the syscall gateway) is threaded through ``ctx`` for the
    persistence commands, which write snapshots via recorded syscalls.
    """
    if io is not None:
        ctx = dict(ctx, io=io)
    entry = COMMANDS.get(verb)
    if entry is None:
        return resp.error(f"unknown command '{verb.lower()}'")
    handler, min_args, _is_write = entry
    if len(args) < min_args:
        return resp.error(f"wrong number of arguments for '{verb.lower()}' command")
    try:
        return handler(heap, args, ctx)
    except WrongType:
        return resp.WRONG_TYPE


def dispatch(heap: Heap, request: bytes, ctx: Dict[str, Any],
             io: Optional[Any] = None) -> bytes:
    """Parse one inline command and run it.  Returns the RESP reply."""
    verb, args = parse(request)
    return run(heap, verb, args, ctx, io)


def is_write_command(request: bytes) -> bool:
    """Does this request mutate the database (and hence hit the AOF)?"""
    return parse(request)[0] in WRITE_VERBS
