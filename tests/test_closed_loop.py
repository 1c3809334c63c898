"""Concurrent closed-loop clients against one server runtime.

Memtier keeps one request in flight on each of many connections.  Here
that shape is batched: every client sends its next request, the
runtime is pumped once, then every client reads its reply.  All the
requests are pending together, so one pump serves several ready
connections — the multi-ready epoll paths (and Memcached's LibEvent
round-robin) that one client at a time, with at most two fds ready,
barely touches.
"""

import pytest

from repro.apps import deploy
from repro.core import Stage
from repro.net.epoll import EpollSet
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.workloads.memtier import MemtierSpec


def clients(stack, count):
    return [stack.client(f"loop-{index}") for index in range(count)]


def batch(runtime, connections, payloads, now):
    """One batched round: every client sends, one pump, every client
    reads.  Returns the replies and the pump's completion time."""
    for client, payload in zip(connections, payloads):
        client.send(payload)
    done = runtime.pump(now)
    return [client.recv() for client in connections], done


def redis_stack():
    return deploy("redis", "2.0.0", NativeRuntime)


def test_all_requests_answered():
    stack = redis_stack()
    connections = clients(stack, 4)
    now, replies = 0, []
    for i in range(25):
        answers, now = batch(stack.runtime, connections,
                             [b"SET c%d-k%d v\r\n" % (index, i)
                              for index in range(4)], now)
        replies += answers
    assert replies == [b"+OK\r\n"] * 100
    assert len(stack.server.heap["db"]) == 100


def test_throughput_near_profile_rate():
    stack = redis_stack()
    connections = clients(stack, 4)
    spec = MemtierSpec()
    streams = [list(spec.commands(100, protocol="redis", seed=index))
               for index in range(4)]
    now = 0
    for round_ in zip(*streams):
        answers, now = batch(stack.runtime, connections, round_, now)
        assert all(answers)
    # A single-threaded server serves ~73k ops/s regardless of the
    # number of closed-loop clients.
    assert 400 * SECOND / now == pytest.approx(73_000, rel=0.20)


def test_latency_grows_with_connections():
    def mean_latency(count):
        stack = redis_stack()
        connections = clients(stack, count)
        now, latencies = 0, []
        for i in range(30):
            _, done = batch(stack.runtime, connections,
                            [b"SET k%d-%d v\r\n" % (index, i)
                             for index in range(count)], now)
            latencies.append(done - now)
            now = done
        return sum(latencies) / len(latencies)

    # More concurrent closed-loop clients => more queueing per request.
    assert mean_latency(8) > mean_latency(1)


def test_interleaving_is_deterministic():
    def run_once():
        stack = redis_stack()
        connections = clients(stack, 3)
        now, trace = 0, []
        for i in range(10):
            answers, done = batch(stack.runtime, connections,
                                  [b"SET k%d-%d v\r\n" % (index, i)
                                   for index in range(3)], now)
            trace.append((done - now, tuple(answers)))
            now = done
        return now, trace, sorted(stack.server.heap["db"])

    assert run_once() == run_once()


def test_memcached_update_under_concurrent_load(monkeypatch):
    """Six concurrent clients through a full Mvedsua lifecycle: the
    server's epoll sets hold several ready connections at once."""
    stack = deploy("memcached", "1.2.2", ring_capacity=1 << 14)
    mvedsua = stack.runtime
    connections = clients(stack, 6)
    ready_sizes = []
    ready = EpollSet.ready

    def watched(epoll):
        fds = ready(epoll)
        if mvedsua.stage is Stage.OUTDATED_LEADER:
            ready_sizes.append(len(fds))
        return fds

    monkeypatch.setattr(EpollSet, "ready", watched)
    assert stack.update("1.2.3", SECOND).ok
    now, replies = 2 * SECOND, []
    for i in range(20):
        for payload in (b"set c%d-%d 0 0 1\r\nv\r\n", b"get c%d-%d\r\n"):
            answers, now = batch(mvedsua, connections,
                                 [payload % (index, i)
                                  for index in range(6)], now)
            replies += answers
    assert len(replies) == 6 * 40 and all(replies)
    # All six connections were ready together; one client at a time
    # never has more than two ready fds.
    assert max(ready_sizes) == len(connections)
    assert mvedsua.stage is Stage.OUTDATED_LEADER
    assert mvedsua.runtime.last_divergence is None
    mvedsua.promote(now + SECOND)
    mvedsua.finalize(now + 2 * SECOND)
    assert mvedsua.current_version == "1.2.3"


def test_think_time_spreads_requests():
    def throughput(think_ns):
        stack = redis_stack()
        connections = clients(stack, 1)
        done = 0
        for _ in range(10):
            _, done = batch(stack.runtime, connections, [b"PING\r\n"],
                            done + think_ns)
        return 10 * SECOND / done

    assert throughput(10**7) < throughput(0)
