"""An observer watches a run; it never changes it.

``pump`` tests the leader's ready set in place, and a client writes to
and reads from its own endpoint unless a chaos injector is installed,
when they go through ``kernel.write`` and ``kernel.read`` so its kernel
sites see every call.  A tracer changes nothing on the path: the run
log reads each iteration off the gateway's trace.  The property below
runs one generated request stream three ways — no observer, a
``Tracer()``, a ``ChaosInjector()`` with an empty plan — on each stack,
and holds everything the run decides to be equal: the replies, each
client's latencies, the runtime's counters, every CPU's horizon after
every step, every burst published to the ring and, but for the
injector's, the virtual kernel's method entries — and holds the
injector's kernel site counters to the entries under it.  A second
property holds the tracer's leader ``iteration`` events to the stream
records the recorder slot logs of the same iterations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import deploy
from repro.chaos.injector import ChaosInjector
from repro.core import Mvedsua
from repro.errors import BadFileDescriptor
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.obs.trace import Tracer
from repro.servers.native import NativeRuntime
from repro.sites import observing
from tests.counting import counted

KEYS = st.sampled_from(["k1", "k2", "k3"])
WORDS = st.text(alphabet="abcdef", min_size=1, max_size=6)
#: ``(client, verb, key, value)``; the set verb is the app's own.
REQUESTS = st.tuples(st.integers(0, 2), st.sampled_from(["GET", "SET"]),
                     KEYS, WORDS)


@st.composite
def streams(draw):
    """``(clients, requests, close_at, closer)``: 1-3 clients, their
    requests, and the step at which ``closer`` closes its connection,
    sends one request into the closed fd and reconnects."""
    clients = draw(st.integers(1, 3))
    requests = draw(st.lists(REQUESTS, min_size=3, max_size=24))
    requests = [(who % clients, verb, key, value)
                for who, verb, key, value in requests]
    return (clients, requests, draw(st.integers(0, len(requests))),
            draw(st.integers(0, clients - 1)))


def _native():
    stack = deploy("redis", "2.0.0", NativeRuntime)
    return stack, stack.runtime, stack.runtime


def _leader():
    stack = deploy("redis", "2.0.0", VaranRuntime)
    return stack, stack.runtime, stack.runtime


def _pair():
    stack = deploy("redis", "2.0.0", VaranRuntime)
    stack.runtime.fork_follower(0)
    return stack, stack.runtime, stack.runtime


def _mvedsua():
    stack = deploy("kvstore", "1.0", Mvedsua)
    return stack, stack.runtime, stack.runtime.runtime


#: name -> builder of ``(stack, serving, core)``: what clients send to,
#: and the Native/Varan runtime under it.
STACKS = {"native": _native, "leader": _leader, "pair": _pair,
          "mvedsua": _mvedsua}
SET_VERB = {"native": "SET", "leader": "SET", "pair": "SET",
            "mvedsua": "PUT"}


def _cpus(core):
    if isinstance(core, NativeRuntime):
        return (core.cpu.busy_until,)
    return (core.leader.cpu.busy_until,) + tuple(
        lane.process.cpu.busy_until for lane in core.lanes)


def run(name, stream):
    """Serve ``stream`` on a fresh ``name`` stack under whatever
    observers are installed; returns everything the run decided, and
    the ``VirtualKernel`` methods it entered (``kernel``)."""
    with counted(VirtualKernel) as entries:
        decided = _serve(name, stream)
    return dict(decided, kernel=entries)


def _serve(name, stream):
    count, requests, close_at, closer = stream
    stack, serving, core = STACKS[name]()
    published = []
    if isinstance(core, VaranRuntime):
        ring = core.ring
        push_many = ring.push_many

        def recording(payloads, produced_at):
            published.append((tuple(payloads), produced_at))
            return push_many(payloads, produced_at)
        ring.push_many = recording
    clients = [stack.client(f"c{index}") for index in range(count)]
    retired = []
    replies, cpus = [], []
    now = 0
    steps = len(requests)
    for step in range(steps + 1):
        if name == "mvedsua":
            if step == steps // 3:
                assert stack.update("2.0", now + 1).ok
            elif step == 2 * steps // 3:
                now = serving.promote(now + 1)
        if step == close_at:
            client = clients[closer]
            client.close()
            with pytest.raises(BadFileDescriptor):
                client.request(serving, b"GET k1\r\n", now + 1)
            retired.append(client)
            clients[closer] = stack.client(f"c{closer}")
        if step == steps:
            break
        who, verb, key, value = requests[step]
        line = (f"{SET_VERB[name]} {key} {value}" if verb == "SET"
                else f"GET {key}")
        reply, now = clients[who].request(serving, line.encode() + b"\r\n",
                                          now + 1)
        replies.append(reply)
        cpus.append(_cpus(core))
    if name == "mvedsua":
        now = serving.finalize(now + 1)
        assert serving.current_version == "2.0"
    cpus.append(_cpus(core))
    return {
        "replies": replies,
        "latencies": [client.latencies_ns for client in retired + clients],
        "total_syscalls": getattr(core, "total_syscalls", None),
        "cpus": cpus,
        "published": published,
        "divergence": getattr(core, "last_divergence", None),
    }


@pytest.mark.parametrize("name", sorted(STACKS))
@given(stream=streams())
@settings(deadline=None)
def test_observed_and_unobserved_runs_agree(name, stream):
    tracer, injector = Tracer(), ChaosInjector()
    with observing():
        plain = run(name, stream)
    with observing(tracer=tracer):
        traced = run(name, stream)
    with observing(chaos=injector):
        injected = run(name, stream)
    assert plain["divergence"] is None
    assert traced == plain
    # The run log counts the leader's syscall records exactly.
    if plain["total_syscalls"] is not None:
        assert tracer.metrics()["syscalls.direct"]["value"] == \
            plain["total_syscalls"]
    # The client's calls go through the kernel under the injector and
    # nowhere else; all the rest is the same.
    entries = injected.pop("kernel")
    assert injected == {key: value for key, value in plain.items()
                        if key != "kernel"}
    # The injector's kernel sites see every call the clients and the
    # server make but one: the request into the closed fd enters
    # ``write`` and fails at its lookup, before the site.
    for op in ("connect", "accept", "read", "write"):
        assert injector.site_calls.get(f"kernel.{op}", 0) == \
            entries[op] - (op == "write")


@pytest.mark.parametrize("name", ["leader", "mvedsua", "pair"])
@given(stream=streams())
@settings(deadline=None)
def test_a_leader_iteration_event_is_its_stream_record(name, stream):
    # One writer in the tracer and recorder slots: each leader
    # ``iteration`` event carries the ``(name, fd, nbytes)`` of the
    # records its ``stream.record`` serializes, in the same order.
    log = Tracer()
    with observing(tracer=log, recorder=log):
        run(name, stream)
    events = log.events
    iterations = [(event.fields["version"], event.fields["calls"])
                  for event in events if event.kind == "iteration"
                  and event.fields["role"] == "direct"]
    recorded = [(event.fields["version"],
                 [(record["sys"], record["fd"], len(record.get("data", "")))
                  for record in event.fields["records"]])
                for event in events if event.kind == "stream.record"]
    assert iterations and iterations == recorded
    assert all(event.fields["count"] == len(event.fields["calls"])
               for event in events if event.kind == "iteration")
