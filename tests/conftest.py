"""Shared fixtures: a kernel, a KV-store deployment, and clients."""

import contextlib

import pytest
from hypothesis import settings

from repro.core import Mvedsua
from repro.net import VirtualKernel
from repro.servers.kvstore import KVStoreServer, KVStoreV1, kv_transforms
from repro.sites import observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient

# Tests that set no ``max_examples`` of their own (tests/test_report.py,
# the ring codec's and the compiled DSL guards' equivalence properties,
# the shipped rules against their references, the parser on mangled
# rule text)
# run hypothesis's default in tier-1 and this depth in CI:
# ``python -m pytest tests/test_report.py … --hypothesis-profile ci``
# (the full line is in .github/workflows/ci.yml).
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture
def kernel():
    return VirtualKernel()


@pytest.fixture
def install():
    """``install(chaos=..., tracer=..., spans=..., recorder=...)``:
    observers that stay installed until the test ends (sites find them
    when they run, so a helper cannot install one around construction
    alone)."""
    with contextlib.ExitStack() as installs:
        yield lambda **hooks: installs.enter_context(observing(**hooks))


@pytest.fixture
def kv_server(kernel):
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    return server


@pytest.fixture
def mvedsua(kernel, kv_server):
    return Mvedsua(kernel, kv_server, PROFILES["kvstore"],
                   transforms=kv_transforms())


@pytest.fixture
def client(kernel, kv_server):
    return VirtualClient(kernel, kv_server.address)


@pytest.fixture
def make_client(kernel, kv_server):
    def _make(name="client"):
        return VirtualClient(kernel, kv_server.address, name)
    return _make
