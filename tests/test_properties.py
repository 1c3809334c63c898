"""Property-based tests (hypothesis) for core system invariants.

These encode the correctness arguments the paper relies on:

* the *state relation* (Figure 3): after any command history, the new
  version's state equals the transform of the old version's state;
* MVE transparency: a follower running identical code never diverges and
  converges to the leader's state, for any workload;
* the rule engine is the identity when no rule matches;
* servers are deterministic functions of their input bytes, regardless
  of how those bytes are chunked by the network.
"""

import collections
import copy
from typing import Any, NamedTuple

from hypothesis import given, settings, strategies as st

from repro.dsu.transform import clone_heap
from repro.mve import VaranRuntime
from repro.mve.dsl import RewriteRule, RuleEngine, SyscallPattern
from repro.net import VirtualKernel
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_1_to_2,
)
from repro.servers.native import NativeRuntime
from repro.servers.redis import RedisServer, redis_version
from repro.syscalls.costs import PROFILES
from repro.syscalls.model import EMPTY_AUX, Sys, SyscallRecord
from repro.workloads import VirtualClient

# -- strategies ---------------------------------------------------------------

keys = st.sampled_from(["alpha", "beta", "gamma", "delta"])
values = st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8)

v1_commands = st.one_of(
    st.tuples(st.just("PUT"), keys, values).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}".encode()),
    keys.map(lambda k: f"GET {k}".encode()),
)

typed_commands = st.one_of(
    st.tuples(st.sampled_from(["PUT-number", "PUT-date", "PUT-string"]),
              keys, values).map(lambda t: f"{t[0]} {t[1]} {t[2]}".encode()),
    keys.map(lambda k: f"TYPE {k}".encode()),
)


# -- the state relation (Figure 3) ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(v1_commands, max_size=30))
def test_state_relation_holds_for_any_v1_history(commands):
    """xform(v1 state after H) == v2 state after H, for any history H."""
    v1, v2 = KVStoreV1(), KVStoreV2()
    heap1, heap2 = v1.initial_heap(), v2.initial_heap()
    for command in commands:
        v1.handle(heap1, command)
        v2.handle(heap2, command)
    assert xform_1_to_2(heap1) == heap2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(v1_commands, typed_commands), max_size=25))
def test_rejected_commands_preserve_the_relation(commands):
    """With typed commands redirected to bad-cmd (Rule 1), the relation
    still holds: what v1 rejects, the redirected v2 also rejects."""
    v1, v2 = KVStoreV1(), KVStoreV2()
    heap1, heap2 = v1.initial_heap(), v2.initial_heap()
    for command in commands:
        v1.handle(heap1, command)
        # Model the outdated-leader stage: commands v1 rejects reach the
        # follower as bad-cmd.
        verb = command.split(b" ", 1)[0]
        if verb.startswith(b"PUT-") or verb == b"TYPE":
            v2.handle(heap2, b"bad-cmd")
        else:
            v2.handle(heap2, command)
    assert xform_1_to_2(heap1) == heap2


# -- MVE transparency ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(v1_commands, min_size=1, max_size=20),
       st.integers(min_value=1, max_value=3),
       st.sampled_from([16, 64, 1 << 12]))
def test_identical_follower_never_diverges(commands, followers,
                                           ring_capacity):
    """One to three identical followers all converge on the leader's
    state, and the slowest lane bounds the leader through its ring."""
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                           ring_capacity=ring_capacity)
    client = VirtualClient(kernel, server.address)
    for _ in range(followers):
        runtime.fork_follower(0)
    stalled_until = 10**12
    runtime.lanes[-1].process.cpu.block_until(stalled_until)
    now = 10**9
    for command in commands:
        _, now = client.request(runtime, command + b"\r\n", now)
    # The leader waited for the stalled lane exactly when its ring filled.
    assert (runtime.ring_stalls > 0) == (now >= stalled_until)
    runtime.drain_follower()
    assert runtime.last_divergence is None
    assert len(runtime.lanes) == followers
    for lane in runtime.lanes:
        assert lane.process.server.heap == runtime.leader.server.heap
        assert lane.ring.is_empty()
        assert lane.ring.high_watermark <= ring_capacity


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(v1_commands, typed_commands),
                min_size=1, max_size=20))
def test_updated_follower_with_rules_never_diverges(commands):
    """The full outdated-leader stage, for arbitrary mixed workloads."""
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = VaranRuntime(kernel, server, PROFILES["kvstore"],
                           ring_capacity=1 << 12, rules=kv_rules())
    client = VirtualClient(kernel, server.address)
    child = server.fork()
    child.apply_version(KVStoreV2(), xform_1_to_2(dict(child.heap)))
    runtime.fork_follower(0, server=child)
    now = 0
    for command in commands:
        _, now = client.request(runtime, command + b"\r\n", now)
    runtime.drain_follower()
    assert runtime.last_divergence is None
    # And the state relation held the whole way.
    assert runtime.follower.server.heap == xform_1_to_2(
        {"table": dict(runtime.leader.server.heap["table"])})


# -- rule engine -------------------------------------------------------------------

record_strategy = st.builds(
    SyscallRecord,
    name=st.sampled_from([Sys.READ, Sys.WRITE, Sys.CLOSE]),
    fd=st.integers(0, 5),
    data=st.binary(max_size=12),
    # hypothesis treats every NamedTuple field as required.
    result=st.none(),
    aux=st.just(EMPTY_AUX),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(record_strategy, max_size=30))
def test_rule_engine_without_rules_is_identity(records):
    engine = RuleEngine([])
    out = []
    for record in records:
        engine.offer(record)
        while engine.has_ready():
            out.append(engine.next_expected())
    engine.flush()
    while engine.has_ready():
        out.append(engine.next_expected())
    assert out == records


@settings(max_examples=60, deadline=None)
@given(st.lists(record_strategy, max_size=30))
def test_non_matching_rules_are_identity(records):
    rule = RewriteRule(
        "never", [SyscallPattern(Sys.READ,
                                 predicate=lambda d: d.startswith(b"\xff\xfe"))],
        lambda matched: [matched[0].with_data(b"unused")])
    engine = RuleEngine([rule])
    out = []
    for record in records:
        engine.offer(record)
        while engine.has_ready():
            out.append(engine.next_expected())
    engine.flush()
    while engine.has_ready():
        out.append(engine.next_expected())
    matched = [r for r in records if r.name is Sys.READ
               and r.data.startswith(b"\xff\xfe")]
    if not matched:
        assert out == records


# -- chunking invariance ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(v1_commands, min_size=1, max_size=10),
       st.data())
def test_server_responses_invariant_under_chunking(commands, data):
    """However the network fragments the request stream, responses and
    final state are identical."""
    stream = b"".join(command + b"\r\n" for command in commands)

    def run(chunks):
        kernel = VirtualKernel()
        server = KVStoreServer(KVStoreV1())
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        responses = b""
        now = 0
        for chunk in chunks:
            reply, now = client.request(runtime, chunk, now)
            responses += reply
        return responses, server.heap

    # One big write vs random fragmentation.
    whole = run([stream])
    cut_points = sorted(data.draw(st.lists(
        st.integers(1, max(1, len(stream) - 1)), max_size=6)))
    pieces = []
    last = 0
    for cut in cut_points:
        pieces.append(stream[last:cut])
        last = cut
    pieces.append(stream[last:])
    fragmented = run([p for p in pieces if p])
    assert whole == fragmented


# -- server determinism -----------------------------------------------------------

redis_commands = st.one_of(
    st.tuples(keys, values).map(lambda t: b"SET %s %s" % (
        t[0].encode(), t[1].encode())),
    keys.map(lambda k: b"GET %s" % k.encode()),
    st.tuples(keys, values).map(lambda t: b"LPUSH %s %s" % (
        t[0].encode(), t[1].encode())),
    keys.map(lambda k: b"LRANGE %s 0 -1" % k.encode()),
    st.tuples(keys, keys, values).map(lambda t: b"HSET %s %s %s" % (
        t[0].encode(), t[1].encode(), t[2].encode())),
    keys.map(lambda k: b"TYPE %s" % k.encode()),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(redis_commands, max_size=25))
def test_redis_replies_are_deterministic(commands):
    def run():
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        return [client.command(runtime, c) for c in commands]

    assert run() == run()


# -- clone_heap: the plain-data process-image copy ---------------------------

heap_atoms = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(allow_nan=False), st.text(max_size=6),
                       st.binary(max_size=6))
hashable_values = st.recursive(
    heap_atoms, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6)


class Entry(NamedTuple):
    """A tuple subclass as a store value (deep-copied, never shared)."""

    kind: str
    payload: Any


#: What a store maps a key to: an atom, Redis's ``("string", value)``,
#: an atom tuple, a nested tuple, a tuple holding lists, a NamedTuple.
store_values = st.one_of(
    heap_atoms,
    st.tuples(st.just("string"), heap_atoms),
    st.lists(heap_atoms, max_size=3).map(tuple),
    st.lists(hashable_values, max_size=3).map(tuple),
    st.lists(st.lists(heap_atoms, max_size=2), max_size=2).map(tuple),
    st.builds(Entry, st.text(max_size=3),
              heap_atoms | st.lists(heap_atoms, max_size=2)))
stores = st.dictionaries(st.text(max_size=4), store_values, max_size=8)
plain_heaps = st.recursive(
    heap_atoms | stores,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(hashable_values, max_size=3),
        st.dictionaries(hashable_values, inner, max_size=4)),
    max_leaves=25)


def _containers(value):
    """Every mutable container reachable from ``value``, depth first."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _containers(item)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            yield value
        for item in value:
            yield from _containers(item)
    elif isinstance(value, set):
        yield value


@settings(max_examples=200, deadline=None)
@given(plain_heaps)
def test_clone_heap_equals_deepcopy_and_is_independent(heap):
    reference = copy.deepcopy(heap)
    clone = clone_heap(heap)
    assert clone == reference
    assert [type(c) for c in _containers(clone)] \
        == [type(c) for c in _containers(heap)]
    # No mutable container is shared between the original and the clone,
    # so scribbling over every one of the clone's leaves the original be.
    assert not ({id(c) for c in _containers(heap)}
                & {id(c) for c in _containers(clone)})
    for container in list(_containers(clone)):
        container.clear()
    assert heap == reference


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=4), plain_heaps, max_size=4),
       st.lists(heap_atoms, max_size=3))
def test_clone_heap_keeps_aliased_subcontainers_aliased(table, shared):
    heap = {"table": table, "a": shared, "b": [shared, (shared, 1)],
            "self": None}
    heap["self"] = heap                         # and survives a cycle
    clone = clone_heap(heap)
    assert clone["self"] is clone and clone is not heap
    assert clone["a"] is clone["b"][0] is clone["b"][1][0]
    assert clone["a"] is not shared and clone["a"] == shared
    assert clone["table"] == table


#: All-atom stores up to 2 000 entries: a short generated value list,
#: repeated (cheap to generate, large enough to be the bulk of a heap).
flat_stores = st.builds(
    lambda items, repeat: {f"key{i}": item
                           for i, item in enumerate(items * repeat)},
    st.lists(heap_atoms, max_size=40), st.integers(1, 50))


@settings(max_examples=100, deadline=None)
@given(flat_stores, st.lists(heap_atoms, max_size=3))
def test_clone_heap_copies_a_flat_store_whole_and_shares_nothing(flat, tail):
    late = dict(flat, tail=tail)        # its only non-atom value is last
    heap = {"table": flat, "again": [flat, (flat, 1)], "late": late}
    reference = copy.deepcopy(heap)
    clone = clone_heap(heap)
    assert clone == reference
    assert list(clone["table"]) == list(flat)
    assert list(clone["late"]) == list(late)
    # Reachable three times, still one object — and not the original.
    assert clone["table"] is clone["again"][0] is clone["again"][1][0]
    assert clone["late"]["tail"] is not tail
    assert not ({id(c) for c in _containers(heap)}
                & {id(c) for c in _containers(clone)})
    for container in list(_containers(clone)):
        container.clear()
    assert heap == reference


ATOM_TYPES = (str, bytes, int, float, bool, type(None))


def _immutable(value):
    """Atoms, and plain tuples of immutables: what a copy may share."""
    return type(value) in ATOM_TYPES or (
        type(value) is tuple and all(map(_immutable, value)))


@settings(max_examples=100, deadline=None)
@given(stores, st.lists(heap_atoms, max_size=3))
def test_clone_heap_shares_exactly_the_atom_tuples_of_a_store(store, shared):
    heap = {"store": store, "again": [store, shared],
            "late": dict(store, tail=(shared, 1))}
    reference = copy.deepcopy(heap)
    clone = clone_heap(heap)
    assert clone == reference
    assert clone["store"] is clone["again"][0] is not store
    assert clone["late"]["tail"][0] is clone["again"][1] is not shared
    for key, value in store.items():
        # Shared when immutable all the way down, else copied.
        assert (clone["store"][key] is value) == _immutable(value)
        assert type(clone["store"][key]) is type(value)
    assert not ({id(c) for c in _containers(heap)}
                & {id(c) for c in _containers(clone)})
    for container in list(_containers(clone)):
        container.clear()
    assert heap == reference


def test_clone_heap_hands_other_types_to_deepcopy():

    class Blob:
        copies = 0

        def __init__(self, payload):
            self.payload = payload

        def __deepcopy__(self, memo):
            Blob.copies += 1
            return Blob(clone_heap(self.payload, memo))

    shared = [1, 2]
    blob = Blob(shared)
    heap = {"blob": blob, "again": blob, "shared": shared,
            "ordered": collections.OrderedDict(k=shared),
            "buffer": bytearray(b"xy"), "frozen": frozenset({(1, "a")})}
    clone = clone_heap(heap)
    assert Blob.copies == 1 and clone["blob"] is clone["again"]
    assert clone["blob"] is not blob
    # One memo spans both copiers: the list stays one object whether it
    # is reached through plain data, a custom type or a dict subclass.
    assert clone["blob"].payload is clone["shared"] \
        is clone["ordered"]["k"]
    assert clone["shared"] == shared and clone["shared"] is not shared
    assert type(clone["ordered"]) is collections.OrderedDict
    assert clone["buffer"] == heap["buffer"] \
        and clone["buffer"] is not heap["buffer"]
    assert clone["frozen"] == heap["frozen"]
