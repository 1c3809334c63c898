"""Divergence forensics: the bundle captured when a follower disagrees."""

import json

import pytest

from repro.core import Mvedsua
from repro.dsu.transform import TransformRegistry
from repro.errors import DivergenceError
from repro.net import VirtualKernel
from repro.obs import Tracer
from repro.obs.forensics import FORENSICS_LAST_K
from repro.servers.kvstore import (
    KVStoreServer,
    KVStoreV1,
    KVStoreV2,
    kv_rules,
    xform_drop_table,
)
from repro.sim.engine import SECOND
from repro.sites import observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


def _diverging_deployment():
    """A KV store whose update transformer drops the table: the first
    GET during catch-up must diverge."""
    buggy = TransformRegistry()
    buggy.register("kvstore", "1.0", "2.0", xform_drop_table)
    kernel = VirtualKernel()
    server = KVStoreServer(KVStoreV1())
    server.attach(kernel)
    mvedsua = Mvedsua(kernel, server, PROFILES["kvstore"], transforms=buggy)
    client = VirtualClient(kernel, server.address)
    return kernel, mvedsua, client


def _force_divergence(mvedsua, client):
    client.command(mvedsua, b"PUT balance 1000")
    mvedsua.request_update(KVStoreV2(), SECOND, rules=kv_rules())
    client.command(mvedsua, b"GET balance", now=2 * SECOND)


def test_divergence_captures_forensics_bundle():
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)

    bundle = mvedsua.runtime.last_forensics
    assert bundle is not None
    # The bundle names the diverging record pair.
    assert "1000" in bundle.expected["describe"]
    assert bundle.actual is not None
    assert bundle.expected["describe"] != bundle.actual["describe"]
    # Divergence time = the GET's start plus accumulated syscall costs.
    assert bundle.at >= 2 * SECOND
    assert "2.0" in bundle.version
    assert "1.0" in bundle.leader_version
    assert "at=" in bundle.reason and "version=" in bundle.reason
    # Ring context: the GET's read record precedes the diverging write.
    assert bundle.ring_last_k
    assert any("GET balance" in entry["describe"]
               for entry in bundle.ring_last_k)
    assert bundle.expected_records and bundle.issued_records
    # The bundle is JSON-serializable end to end.
    payload = json.loads(bundle.to_json())
    assert payload["at"] == bundle.at
    assert payload["diverging"]["expected"] == bundle.expected


def test_forensics_summary_names_the_records():
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)
    summary = mvedsua.runtime.last_forensics.summary()
    assert "expected:" in summary and "issued:" in summary
    assert "1000" in summary


def test_tracer_collects_bundle_and_ring_history():
    _, mvedsua, client = _diverging_deployment()
    tracer = Tracer(experiment="forensics")
    with observing(tracer=tracer):
        _force_divergence(mvedsua, client)

    assert len(tracer.forensics) == 1
    bundle = tracer.forensics[0]
    assert bundle is mvedsua.runtime.last_forensics
    # The ring history is the lane's, bounded by the one forensics K.
    assert 0 < len(bundle.ring_last_k) <= FORENSICS_LAST_K
    kinds = tracer.kind_tally()
    assert kinds.get("divergence.forensics") == 1
    assert tracer.metrics.snapshot()["divergence.detected"]["value"] == 1


def test_forensics_bundle_write_json(tmp_path):
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)
    path = tmp_path / "bundle.json"
    mvedsua.runtime.last_forensics.write_json(str(path))
    payload = json.loads(path.read_text())
    assert set(payload) >= {"at", "version", "leader_version", "reason",
                            "diverging", "ring_last_k", "rule_engine"}


def test_service_survives_the_divergence():
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)
    # Rollback, not outage: clients still read the old version's data.
    reply = client.command(mvedsua, b"GET balance", now=3 * SECOND)
    assert b"1000" in reply


# -- satellite: DivergenceError carries time and version --------------------

def test_divergence_error_annotate_rewrites_message():
    error = DivergenceError("records differ", expected="e", actual="a")
    assert error.at is None and error.version is None
    returned = error.annotate(at=123, version="kvstore-2.0")
    assert returned is error
    assert error.at == 123 and error.version == "kvstore-2.0"
    assert str(error) == "records differ [at=123 version=kvstore-2.0]"
    # Re-annotating refreshes, never stacks, the suffix.
    error.annotate(at=456)
    assert str(error) == "records differ [at=456 version=kvstore-2.0]"
    assert error.base_message == "records differ"


def test_divergence_error_annotate_partial():
    error = DivergenceError("boom")
    error.annotate(version="v9")
    assert str(error) == "boom [version=v9]"
    assert error.at is None
