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
# the stream record codec's round trip,
# the shipped rules against their references, the parser on mangled
# rule text, the tracer's log and fold against its eager reference, the
# fluid model's fast-forward against plain stepping, observed against
# unobserved runs, the rule engine's one-pass rewrite against
# offer-by-offer feeding, one heap copy per update, the inline key
# draw against ``randrange``, one update step and one install for
# standalone Kitsune and Mvedsua under generated ``dsu.*`` fault plans,
# an update succeeding iff the new version leads over generated
# lifecycles)
# run hypothesis's default in tier-1 and this depth in CI:
# ``python -m pytest tests/test_report.py … --hypothesis-profile ci``
# (the full line is in .github/workflows/ci.yml).
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def own_run():
    """Every test is a run of its own: the run's position (clock, stage,
    phase in ``repro.sites.OBS``) starts fresh, and what a test's
    deployments moved does not leak into the next test."""
    with observing():
        yield


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
