"""Tests for the Redis analogue: commands, AOF ordering, versions, rules."""

import pytest

from repro.core import Mvedsua, Stage
from repro.errors import ServerCrash
from repro.net import VirtualKernel
from repro.servers.native import NativeRuntime
from repro.servers.redis import (
    REDIS_VERSIONS,
    RedisServer,
    redis_rules,
    redis_transforms,
    redis_version,
)
from repro.servers.redis import commands as redis_commands
from repro.servers.redis.server import AOF_PATH, AOF_PREFIX
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import Sys
from repro.workloads import VirtualClient
from tests.counting import fired_rules


@pytest.fixture
def deployment():
    kernel = VirtualKernel()
    server = RedisServer(redis_version("2.0.0"))
    server.attach(kernel)
    runtime = NativeRuntime(kernel, server, PROFILES["redis"])
    client = VirtualClient(kernel, server.address)
    return kernel, server, runtime, client


class TestCommands:
    """Direct command-layer tests (no wire protocol)."""

    def setup_method(self):
        self.heap = redis_commands.initial_heap()
        self.ctx = {"hmget_bug": False}

    def run(self, line):
        return redis_commands.dispatch(self.heap, line, self.ctx)

    def test_ping_and_echo(self):
        assert self.run(b"PING") == b"+PONG\r\n"
        assert self.run(b"ECHO hi") == b"$2\r\nhi\r\n"

    def test_set_get_roundtrip(self):
        assert self.run(b"SET k v") == b"+OK\r\n"
        assert self.run(b"GET k") == b"$1\r\nv\r\n"

    def test_get_missing_is_nil(self):
        assert self.run(b"GET nope") == b"$-1\r\n"

    def test_setnx(self):
        assert self.run(b"SETNX k v") == b":1\r\n"
        assert self.run(b"SETNX k w") == b":0\r\n"
        assert self.run(b"GET k") == b"$1\r\nv\r\n"

    def test_getset(self):
        assert self.run(b"GETSET k new") == b"$-1\r\n"
        assert self.run(b"GETSET k newer") == b"$3\r\nnew\r\n"

    def test_append(self):
        self.run(b"SET k ab")
        assert self.run(b"APPEND k cd") == b":4\r\n"
        assert self.run(b"GET k") == b"$4\r\nabcd\r\n"

    def test_del_and_exists(self):
        self.run(b"SET a 1")
        self.run(b"SET b 2")
        assert self.run(b"EXISTS a") == b":1\r\n"
        assert self.run(b"DEL a b c") == b":2\r\n"
        assert self.run(b"EXISTS a") == b":0\r\n"

    def test_incr_decr(self):
        assert self.run(b"INCR n") == b":1\r\n"
        assert self.run(b"INCRBY n 10") == b":11\r\n"
        assert self.run(b"DECR n") == b":10\r\n"
        assert self.run(b"DECRBY n 5") == b":5\r\n"

    def test_incr_non_numeric_errors(self):
        self.run(b"SET k abc")
        assert b"not an integer" in self.run(b"INCR k")

    def test_type_reporting(self):
        self.run(b"SET s v")
        self.run(b"LPUSH l v")
        self.run(b"SADD st v")
        self.run(b"HSET h f v")
        assert self.run(b"TYPE s") == b"+string\r\n"
        assert self.run(b"TYPE l") == b"+list\r\n"
        assert self.run(b"TYPE st") == b"+set\r\n"
        assert self.run(b"TYPE h") == b"+hash\r\n"
        assert self.run(b"TYPE nope") == b"+none\r\n"

    def test_keys_and_dbsize(self):
        self.run(b"SET user:1 a")
        self.run(b"SET user:2 b")
        self.run(b"SET other c")
        assert self.run(b"DBSIZE") == b":3\r\n"
        assert self.run(b"KEYS user:*") == \
            b"*2\r\n$6\r\nuser:1\r\n$6\r\nuser:2\r\n"

    def test_flushdb(self):
        self.run(b"SET k v")
        assert self.run(b"FLUSHDB") == b"+OK\r\n"
        assert self.run(b"DBSIZE") == b":0\r\n"

    def test_expire_ttl_persist(self):
        self.run(b"SET k v")
        assert self.run(b"TTL k") == b":-1\r\n"
        assert self.run(b"EXPIRE k 100") == b":1\r\n"
        assert self.run(b"TTL k") == b":100\r\n"
        assert self.run(b"PERSIST k") == b":1\r\n"
        assert self.run(b"TTL k") == b":-1\r\n"
        assert self.run(b"TTL missing") == b":-2\r\n"

    def test_rename(self):
        self.run(b"SET a v")
        assert self.run(b"RENAME a b") == b"+OK\r\n"
        assert self.run(b"GET b") == b"$1\r\nv\r\n"
        assert b"no such key" in self.run(b"RENAME missing x")

    def test_list_operations(self):
        self.run(b"RPUSH l a")
        self.run(b"RPUSH l b")
        self.run(b"LPUSH l z")
        assert self.run(b"LLEN l") == b":3\r\n"
        assert self.run(b"LRANGE l 0 -1") == \
            b"*3\r\n$1\r\nz\r\n$1\r\na\r\n$1\r\nb\r\n"
        assert self.run(b"LINDEX l 1") == b"$1\r\na\r\n"
        assert self.run(b"LPOP l") == b"$1\r\nz\r\n"
        assert self.run(b"RPOP l") == b"$1\r\nb\r\n"

    def test_set_operations(self):
        assert self.run(b"SADD s a b c") == b":3\r\n"
        assert self.run(b"SADD s a") == b":0\r\n"
        assert self.run(b"SCARD s") == b":3\r\n"
        assert self.run(b"SISMEMBER s a") == b":1\r\n"
        assert self.run(b"SREM s a") == b":1\r\n"
        assert self.run(b"SISMEMBER s a") == b":0\r\n"
        assert self.run(b"SMEMBERS s") == b"*2\r\n$1\r\nb\r\n$1\r\nc\r\n"

    def test_hash_operations(self):
        assert self.run(b"HSET h f1 v1") == b":1\r\n"
        assert self.run(b"HSET h f1 v2") == b":0\r\n"
        assert self.run(b"HGET h f1") == b"$2\r\nv2\r\n"
        assert self.run(b"HLEN h") == b":1\r\n"
        assert self.run(b"HEXISTS h f1") == b":1\r\n"
        assert self.run(b"HDEL h f1") == b":1\r\n"
        assert self.run(b"HLEN h") == b":0\r\n"

    def test_hmget_on_hash(self):
        self.run(b"HSET h f1 v1")
        assert self.run(b"HMGET h f1 f2") == b"*2\r\n$2\r\nv1\r\n$-1\r\n"

    def test_hmget_wrong_type_without_bug(self):
        self.run(b"SET s v")
        assert b"wrong kind of value" in self.run(b"HMGET s f")

    def test_hmget_wrong_type_with_bug_crashes(self):
        self.run(b"SET s v")
        with pytest.raises(ServerCrash, match="7fb16bac"):
            redis_commands.dispatch(self.heap, b"HMGET s f",
                                    {"hmget_bug": True})

    def test_wrong_type_errors(self):
        self.run(b"SET s v")
        assert b"wrong kind" in self.run(b"LPUSH s x")
        assert b"wrong kind" in self.run(b"SADD s x")
        assert b"wrong kind" in self.run(b"HSET s f v")

    def test_unknown_command(self):
        assert b"unknown command" in self.run(b"BOGUS x")

    def test_wrong_arity(self):
        assert b"wrong number of arguments" in self.run(b"SET onlykey")

    def test_is_write_classification(self):
        assert redis_commands.is_write_command(b"SET k v")
        assert redis_commands.is_write_command(b"LPUSH l v")
        assert not redis_commands.is_write_command(b"GET k")
        assert not redis_commands.is_write_command(b"HMGET h f")
        assert not redis_commands.is_write_command(b"NOPE")


#: The reply to an argument that is not an integer.
NOT_AN_INTEGER = b"-ERR value is not an integer or out of range\r\n"


class TestIntegerArguments:
    """A verb that takes an integer answers a non-integer argument with
    an error reply, leaves the store as it was, and keeps serving."""

    @pytest.fixture(autouse=True)
    def _served(self, deployment):
        _, self.server, self.runtime, self.client = deployment
        for line in (b"SET a 5", b"RPUSH l x", b"RPUSH l y"):
            self.command(line)
        self.before = {key: (kind, list(value) if kind == "list" else value)
                       for key, (kind, value)
                       in self.server.heap["db"].items()}

    def command(self, line):
        return self.client.command(self.runtime, line)

    def _answers_not_an_integer(self, line):
        assert self.command(line) == NOT_AN_INTEGER
        assert self.server.heap["db"] == self.before
        assert self.server.heap["ttls"] == {}
        assert self.command(b"GET a") == b"$1\r\n5\r\n"

    def test_expire(self):
        self._answers_not_an_integer(b"EXPIRE a x")

    def test_incrby(self):
        self._answers_not_an_integer(b"INCRBY a x")

    def test_decrby(self):
        self._answers_not_an_integer(b"DECRBY a 1.5")

    def test_lrange(self):
        self._answers_not_an_integer(b"LRANGE l x 1")
        self._answers_not_an_integer(b"LRANGE l 0 y")
        assert self.command(b"LRANGE l 0 -1") == \
            b"*2\r\n$1\r\nx\r\n$1\r\ny\r\n"

    def test_lindex(self):
        self._answers_not_an_integer(b"LINDEX l x")
        assert self.command(b"LINDEX l 1") == b"$1\r\ny\r\n"


class TestVersions:
    def test_release_set(self):
        assert REDIS_VERSIONS == ("2.0.0", "2.0.1", "2.0.2", "2.0.3")

    def test_aof_ordering_flag(self):
        assert not redis_version("2.0.0").aof_before_reply
        for name in ("2.0.1", "2.0.2", "2.0.3"):
            assert redis_version(name).aof_before_reply

    def test_hmget_bug_default_and_removal(self):
        assert redis_version("2.0.0").has_hmget_bug
        assert not redis_version("2.0.0", hmget_bug=False).has_hmget_bug

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            redis_version("9.9.9")

    def test_heap_entries_counts_db(self):
        version = redis_version("2.0.0")
        heap = version.initial_heap()
        version.handle(heap, b"SET a 1")
        version.handle(heap, b"SET b 2")
        assert version.heap_entries(heap) == 2


class TestAofSyscallOrder:
    def trace_names(self, version_name):
        kernel = VirtualKernel()
        server = RedisServer(redis_version(version_name))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PING")  # accept + warm
        runtime.gateway.begin_iteration()
        client.send(b"SET k v\r\n")
        runtime.pump(SECOND)
        return [(r.name, r.fd) for r in runtime.gateway.trace.records]

    def test_200_replies_then_appends(self):
        names = self.trace_names("2.0.0")
        write_fds = [fd for name, fd in names if name is Sys.WRITE]
        assert write_fds[-1] == -3  # AOF last

    def test_201_appends_then_replies(self):
        names = self.trace_names("2.0.1")
        write_fds = [fd for name, fd in names if name is Sys.WRITE]
        assert write_fds[0] == -3  # AOF first

    def test_reads_do_not_touch_aof(self, deployment):
        kernel, server, runtime, client = deployment
        client.command(runtime, b"SET k v")
        aof_after_write = kernel.fs.read_file(AOF_PATH)
        client.command(runtime, b"GET k")
        assert kernel.fs.read_file(AOF_PATH) == aof_after_write

    def test_aof_contents_replay_commands(self, deployment):
        kernel, server, runtime, client = deployment
        client.command(runtime, b"SET a 1")
        client.command(runtime, b"DEL a")
        aof = kernel.fs.read_file(AOF_PATH)
        assert aof == AOF_PREFIX + b"SET a 1\r\n" + AOF_PREFIX + b"DEL a\r\n"

    def test_aof_can_be_disabled(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"), aof_enabled=False)
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"SET k v")
        assert not kernel.fs.exists(AOF_PATH)


class TestVerbParsedOnce:
    """One parser (``commands.parse``: latin-1 decode, ``str.upper``)
    answers what four did — two of them byte-wise (``bytes.upper``).
    Pinned on the inputs where those could have differed."""

    CASINGS = {
        "upper": str.upper,
        "lower": str.lower,
        "mixed": lambda verb: "".join(
            char.lower() if index % 2 else char
            for index, char in enumerate(verb)),
    }

    @pytest.mark.parametrize("casing", sorted(CASINGS))
    def test_is_write_over_the_whole_table(self, casing):
        version = redis_version("2.0.0")
        for verb, (_, _, writes) in redis_commands.COMMANDS.items():
            request = self.CASINGS[casing](verb).encode() + b" k v"
            assert version.is_write(request) is writes, request
            assert redis_commands.is_write_command(request) is writes, request

    def test_exec_is_logged_whatever_follows_it(self):
        version = redis_version("2.0.0")
        for request in (b"EXEC", b"exec", b"EXEC arg", b"eXeC "):
            assert version.is_write(request), request
            # ...by the version's say-so: it is not a table command.
            assert not redis_commands.is_write_command(request), request
        for request in (b"MULTI", b"multi x", b"DISCARD", b"EXECUTE"):
            assert not version.is_write(request), request

    def test_transaction_edges_reach_the_aof_as_before(self, deployment):
        kernel, server, runtime, client = deployment
        # EXEC is logged as a whole — even one that opens nothing.
        assert b"EXEC without MULTI" in client.command(runtime, b"EXEC arg")
        logged = AOF_PREFIX + b"EXEC arg\r\n"
        assert kernel.fs.read_file(AOF_PATH) == logged
        assert client.command(runtime, b"multi") == b"+OK\r\n"
        assert b"not be nested" in client.command(runtime, b"MULTI")
        assert client.command(runtime, b"SET a 1") == b"+QUEUED\r\n"
        assert kernel.fs.read_file(AOF_PATH) == logged  # nothing yet
        assert client.command(runtime, b"exec") == b"*1\r\n+OK\r\n"
        assert kernel.fs.read_file(AOF_PATH) == logged + AOF_PREFIX \
            + b"exec\r\n"

    def test_non_ascii_verb(self, deployment):
        kernel, server, runtime, client = deployment
        # 0xdf is latin-1 sharp s: str.upper() makes it "SS",
        # bytes.upper() leaves it alone.  Neither spells SET.
        request = b"\xdfET k v"
        assert not server.version.is_write(request)
        assert not redis_commands.is_write_command(request)
        assert client.command(runtime, request) == \
            b"-ERR unknown command 'sset'\r\n"
        assert client.command(runtime, b"GET k") == b"$-1\r\n"
        assert not kernel.fs.exists(AOF_PATH)
        # Inside a transaction it queues like any other line.
        client.command(runtime, b"MULTI")
        assert client.command(runtime, request) == b"+QUEUED\r\n"
        assert client.command(runtime, b"EXEC") == \
            b"*1\r\n-ERR unknown command 'sset'\r\n"

    def test_no_latin1_byte_upper_cases_into_a_verb(self):
        # Why one str.upper() may stand in for the byte-wise parsers:
        # above 0x7f the only upper-casing that lands in ASCII is
        # sharp s -> "SS", and no verb contains "SS".
        for code in range(0x80, 0x100):
            upper = chr(code).upper()
            assert upper == "SS" or not upper.isascii(), hex(code)
        verbs = set(redis_commands.COMMANDS) | {"MULTI", "EXEC", "DISCARD"}
        assert not [verb for verb in verbs if "SS" in verb]

    def test_handle_says_what_the_aof_must_log(self):
        version = redis_version("2.0.0")
        heap, session = version.initial_heap(), {}
        assert version.handle(heap, b"SET k v", session).logged
        assert not version.handle(heap, b"GET k", session).logged
        assert not version.handle(heap, b"MULTI", session).logged
        queued = version.handle(heap, b"SET k w", session)
        assert queued == [b"+QUEUED\r\n"] and not queued.logged
        assert version.handle(heap, b"EXEC", session).logged


class TestSeed:
    def test_seed_populates_without_aof(self, deployment):
        kernel, server, runtime, client = deployment
        # Warmed straight into the heap, as a store loaded before the
        # experiment starts (hostbench's builders do the same).
        db = server.heap["db"]
        for index in range(1000):
            db[f"key:{index:09d}"] = ("string", "x" * 16)
        assert client.command(runtime, b"DBSIZE") == b":1000\r\n"
        assert not kernel.fs.exists(AOF_PATH)
        assert client.command(runtime, b"GET key:000000042") == \
            b"$16\r\n" + b"x" * 16 + b"\r\n"


class TestUpdatesUnderMvedsua:
    def make(self, old="2.0.0", hmget_bug=True):
        kernel = VirtualKernel()
        server = RedisServer(redis_version(old, hmget_bug=hmget_bug))
        server.attach(kernel)
        mvedsua = Mvedsua(kernel, server, PROFILES["redis"],
                          transforms=redis_transforms())
        client = VirtualClient(kernel, server.address)
        return kernel, mvedsua, client

    def test_200_to_201_with_rule_stays_in_sync(self):
        with fired_rules() as fired:
            _, mvedsua, client = self.make()
            client.command(mvedsua, b"SET a 1")
            mvedsua.request_update(redis_version("2.0.1"), SECOND,
                                   rules=redis_rules("2.0.0", "2.0.1"))
            client.command(mvedsua, b"SET b 2", now=2 * SECOND)
            client.command(mvedsua, b"GET b", now=3 * SECOND)
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.last_divergence is None
        assert "aof_order" in fired
        leader_db = mvedsua.runtime.leader.server.heap["db"]
        follower_db = mvedsua.runtime.follower.server.heap["db"]
        assert leader_db == follower_db

    def test_200_to_201_without_rule_diverges(self):
        _, mvedsua, client = self.make()
        mvedsua.request_update(redis_version("2.0.1"), SECOND)
        client.command(mvedsua, b"SET b 2", now=2 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()

    def test_201_to_202_needs_no_rules(self):
        _, mvedsua, client = self.make(old="2.0.1")
        client.command(mvedsua, b"SET a 1")
        mvedsua.request_update(redis_version("2.0.2"), SECOND,
                               rules=redis_rules("2.0.1", "2.0.2"))
        client.command(mvedsua, b"SET b 2", now=2 * SECOND)
        client.command(mvedsua, b"HSET h f v", now=3 * SECOND)
        assert mvedsua.runtime.last_divergence is None
        assert mvedsua.stage is Stage.OUTDATED_LEADER

    def test_promotion_reverses_aof_rule(self):
        with fired_rules() as fired:
            _, mvedsua, client = self.make()
            mvedsua.request_update(redis_version("2.0.1"), SECOND,
                                   rules=redis_rules("2.0.0", "2.0.1"))
            mvedsua.promote(2 * SECOND)
            client.command(mvedsua, b"SET c 3", now=3 * SECOND)
        assert mvedsua.runtime.last_divergence is None
        assert "aof_order_rev" in fired
        mvedsua.finalize(4 * SECOND)
        assert mvedsua.current_version == "2.0.1"

    def test_hmget_bug_in_new_code_rolls_back(self):
        """Paper §6.2 'Error in the New Code', exactly as staged there."""
        _, mvedsua, client = self.make(hmget_bug=False)
        client.command(mvedsua, b"SET s notahash")
        mvedsua.request_update(redis_version("2.0.1", hmget_bug=True),
                               SECOND, rules=redis_rules("2.0.0", "2.0.1"))
        # The bad HMGET crashes the follower; the leader answers the
        # client with the WRONGTYPE error and service continues.
        reply = client.command(mvedsua, b"HMGET s f", now=2 * SECOND)
        assert b"wrong kind of value" in reply
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.last_outcome().rolled_back()
        assert client.command(mvedsua, b"GET s", now=3 * SECOND) == \
            b"$8\r\nnotahash\r\n"

    def test_hmget_bug_with_kitsune_alone_crashes(self):
        """The contrast case: Kitsune without MVE takes the server down."""
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0", hmget_bug=False))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"],
                                with_kitsune=True)
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"SET s notahash")
        from repro.dsu import Kitsune
        result = runtime.apply_update(
            Kitsune(redis_transforms()),
            redis_version("2.0.1", hmget_bug=True), SECOND)
        assert result.ok
        with pytest.raises(ServerCrash):
            client.command(runtime, b"HMGET s f", now=2 * SECOND)
        # And the server stays down.
        with pytest.raises(ServerCrash):
            client.command(runtime, b"GET s", now=3 * SECOND)


class TestMultiKeyCommands:
    def setup_method(self):
        self.heap = redis_commands.initial_heap()
        self.ctx = {"hmget_bug": False}

    def run(self, line):
        return redis_commands.dispatch(self.heap, line, self.ctx)

    def test_mset_mget_round_trip(self):
        assert self.run(b"MSET a 1 b 2 c 3") == b"+OK\r\n"
        assert self.run(b"MGET a b missing c") == \
            b"*4\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n$1\r\n3\r\n"

    def test_mset_odd_arity_rejected(self):
        assert b"wrong number of arguments" in self.run(b"MSET a 1 b")

    def test_mget_wrong_type_reads_nil(self):
        self.run(b"LPUSH l x")
        self.run(b"SET s v")
        assert self.run(b"MGET l s") == b"*2\r\n$-1\r\n$1\r\nv\r\n"

    def test_setex_sets_value_and_ttl(self):
        assert self.run(b"SETEX k 100 v") == b"+OK\r\n"
        assert self.run(b"GET k") == b"$1\r\nv\r\n"
        assert self.run(b"TTL k") == b":100\r\n"

    def test_setex_invalid_expiry(self):
        assert b"invalid expire" in self.run(b"SETEX k 0 v")
        assert b"not an integer" in self.run(b"SETEX k soon v")

    def test_mset_is_write_command(self):
        assert redis_commands.is_write_command(b"MSET a 1")
        assert redis_commands.is_write_command(b"SETEX k 1 v")
        assert not redis_commands.is_write_command(b"MGET a")
