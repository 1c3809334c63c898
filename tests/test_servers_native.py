"""Tests for the native/Kitsune runtime (the non-MVE baseline)."""

import pytest

from repro.dsu import Kitsune
from repro.errors import ServerCrash
from repro.net import VirtualKernel
from repro.obs import Tracer
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_transforms,
)
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.sites import observing
from repro.syscalls.costs import PROFILES, QUIESCE_NS, ExecutionMode
from repro.workloads import VirtualClient


def deployment(with_kitsune=False):
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    runtime = NativeRuntime(kernel, server, PROFILES["kvstore"],
                            with_kitsune=with_kitsune)
    client = VirtualClient(kernel, server.address)
    return kernel, server, runtime, client


def test_mode_selection():
    _, _, plain, _ = deployment(with_kitsune=False)
    _, _, dsu, _ = deployment(with_kitsune=True)
    assert plain.mode() is ExecutionMode.NATIVE
    assert dsu.mode() is ExecutionMode.KITSUNE


def test_kitsune_build_is_slightly_slower():
    _, _, plain, client_a = deployment(with_kitsune=False)
    _, _, dsu, client_b = deployment(with_kitsune=True)
    client_a.command(plain, b"PUT k v")
    client_b.command(dsu, b"PUT k v")
    assert dsu.cpu.busy_until >= plain.cpu.busy_until


def test_update_requires_dsu_build():
    _, _, runtime, _ = deployment(with_kitsune=False)
    with pytest.raises(ServerCrash, match="non-DSU"):
        runtime.apply_update(Kitsune(kv_transforms()), KVStoreV2(), 0)


def test_update_swaps_version_and_pauses():
    _, server, runtime, client = deployment(with_kitsune=True)
    for index in range(100):
        client.command(runtime, b"PUT key%d v" % index)
    busy_before = runtime.cpu.busy_until
    result = runtime.apply_update(Kitsune(kv_transforms()), KVStoreV2(),
                                  SECOND)
    assert result.ok
    assert server.version.name == "2.0"
    assert result.xform_ns == 100 * PROFILES["kvstore"].xform_entry_ns
    assert runtime.cpu.busy_until >= SECOND + 100 * \
        PROFILES["kvstore"].xform_entry_ns + QUIESCE_NS
    assert runtime.cpu.busy_until > busy_before


def test_traced_update_is_stamped_from_its_start():
    _, _, runtime, client = deployment(with_kitsune=True)
    for index in range(100):
        client.command(runtime, b"PUT key%d v" % index)
    tracer = Tracer()
    with observing(tracer=tracer):
        result = runtime.apply_update(Kitsune(kv_transforms()), KVStoreV2(),
                                      SECOND)
    events = {event.kind: event for event in tracer.events}
    quiesce_ns = events["dsu.quiesce"].fields["ns"]
    xform_ns = events["dsu.xform"].fields["ns"]
    assert (quiesce_ns, xform_ns) == (result.quiesce_ns, result.xform_ns)
    assert xform_ns > 0
    assert events["dsu.request"].at == SECOND
    assert events["dsu.quiesce"].at == SECOND + quiesce_ns
    for kind in ("dsu.xform", "dsu.applied", "dsu.resume"):
        assert events[kind].at == SECOND + quiesce_ns + xform_ns, kind


def test_requests_after_update_use_new_version():
    _, _, runtime, client = deployment(with_kitsune=True)
    client.command(runtime, b"PUT k v")
    runtime.apply_update(Kitsune(kv_transforms()), KVStoreV2(), SECOND)
    assert client.command(runtime, b"TYPE k", now=2 * SECOND) == \
        b"string\r\n"


def test_requests_queue_behind_the_update_pause():
    _, server, runtime, client = deployment(with_kitsune=True)
    server.heap["table"].update({f"k{i}": "v" for i in range(100_000)})
    runtime.apply_update(Kitsune(kv_transforms()), KVStoreV2(), SECOND)
    # A request arriving mid-pause completes only after it.
    _, done = client.request(runtime, b"GET k0\r\n", now=SECOND + 1)
    assert done >= SECOND + 100_000 * PROFILES["kvstore"].xform_entry_ns
    assert client.latencies_ns[-1] > 100 * 10**6  # waited >100 ms


def test_crash_takes_the_server_down_for_good():
    class CrashV1(KVStoreV1):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"BOOM"):
                raise ServerCrash("bug")
            return super().handle(heap, request, session, io)

    kernel = VirtualKernel()
    server = KVStoreServer(CrashV1())
    server.attach(kernel)
    runtime = NativeRuntime(kernel, server, PROFILES["kvstore"])
    client = VirtualClient(kernel, server.address)
    client.command(runtime, b"PUT k v")
    with pytest.raises(ServerCrash):
        client.command(runtime, b"BOOM")
    with pytest.raises(ServerCrash, match="down"):
        client.command(runtime, b"GET k")


def test_completions_recorded_per_iteration():
    _, _, runtime, client = deployment()
    client.command(runtime, b"PUT a 1")
    client.command(runtime, b"GET a")
    assert runtime.requests_served == 2
