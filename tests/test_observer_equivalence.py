"""An observer watches a run; it never changes it.

With no tracer or chaos injector installed, ``pump`` tests the leader's
ready set in place and a client writes to and reads from its own
endpoint; with either installed they go through ``kernel.epoll_wait``,
``kernel.write`` and ``kernel.read`` so the run log and the chaos site
counters see every call.  The property below runs one generated
request stream three ways — no observer, a ``Tracer()``, a
``ChaosInjector()`` with an empty plan — on each stack, and holds
everything the run decides to be equal: the replies, each client's
latencies, the runtime's counters, every CPU's horizon after every
step, and every burst published to the ring — and holds the injector's
kernel site counters to the calls the run log shows.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import deploy
from repro.chaos.injector import ChaosInjector
from repro.core import Mvedsua
from repro.errors import BadFileDescriptor
from repro.mve import VaranRuntime
from repro.obs.trace import Tracer
from repro.servers.native import NativeRuntime
from repro.sites import observing

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
    observers are installed; returns everything the run decided."""
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
        "requests_served": core.requests_served,
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
    assert injected == plain
    # Both observers see every kernel call the clients and the server
    # make: the injector's kernel sites count the calls the run log
    # shows completing (a call into a closed fd fails before its site).
    completed = Counter(f"kernel.{event.fields['op']}"
                        for event in tracer.events
                        if event.kind == "kernel.exit")
    for site in ("kernel.connect", "kernel.accept", "kernel.read",
                 "kernel.write"):
        assert injector.site_calls.get(site, 0) == completed[site]
