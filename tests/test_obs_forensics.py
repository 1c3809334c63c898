"""Divergence forensics: the bundle captured when a follower disagrees."""

import json

from repro.core import Mvedsua
from repro.dsu.transform import TransformRegistry
from repro.errors import DivergenceError
from repro.mve import varan
from repro.net import VirtualKernel
from repro.net.ring_wire import decode_records
from repro.obs import Tracer
from repro.obs.forensics import FORENSICS_LAST_K, summary
from repro.report import canonical
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

    bundle = mvedsua.runtime.last_divergence.forensics
    expected, actual = (bundle["diverging"]["expected"],
                        bundle["diverging"]["actual"])
    # The bundle names the diverging record pair, in the stream layout.
    assert expected["sys"] == actual["sys"] == "write"
    assert "1000" in expected["data"]
    assert expected != actual
    # Divergence time = the GET's start plus accumulated syscall costs.
    assert bundle["at"] >= 2 * SECOND
    assert "2.0" in bundle["version"]
    assert "1.0" in bundle["leader_version"]
    assert "at=" in bundle["reason"] and "version=" in bundle["reason"]
    # Ring context: the GET's read record precedes the diverging write.
    assert bundle["ring_last_k"]
    assert any(entry["sys"] == "read" and "GET balance" in entry["data"]
               for entry in bundle["ring_last_k"])
    assert all(set(entry) >= {"produced_at", "sequence"}
               for entry in bundle["ring_last_k"])
    assert bundle["expected_records"] and bundle["issued_records"]
    assert bundle["rules_fired"] == []
    assert "rule_engine" not in bundle


def test_bundle_records_decode_to_what_the_follower_replayed(monkeypatch):
    """Every record a bundle holds reads back through the ring wire's
    decoder as the record it was: the diverging pair as the
    ``DivergenceError`` names it, the expected stream as the follower
    step was handed it."""
    handed = []
    replay = varan.replay_iteration

    def remembering(server, gateway, expected, *args, **kwargs):
        handed.append(list(expected))
        return replay(server, gateway, expected, *args, **kwargs)

    monkeypatch.setattr(varan, "replay_iteration", remembering)
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)

    error = mvedsua.runtime.last_divergence
    bundle = error.forensics
    decoded = decode_records([bundle["diverging"]["expected"],
                              bundle["diverging"]["actual"]])
    assert decoded == [error.expected, error.actual]
    assert repr(decoded) == repr([error.expected, error.actual])
    stream = decode_records(bundle["expected_records"])
    assert stream == handed[-1]
    assert repr(stream) == repr(handed[-1])
    # The ring entries carry the same layout, plus where they were.
    assert decode_records(bundle["ring_last_k"])
    assert decode_records(bundle["issued_records"])


def test_forensics_summary_names_the_records():
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)
    bundle = mvedsua.runtime.last_divergence.forensics
    text = summary(bundle)
    assert "expected:" in text and "issued:" in text
    assert "1000" in text
    # Each diverging record is printed as its canonical JSON line.
    assert canonical(bundle["diverging"]["expected"]) in text
    assert canonical(bundle["diverging"]["actual"]) in text


def test_tracer_collects_bundle_and_ring_history(tmp_path):
    _, mvedsua, client = _diverging_deployment()
    tracer = Tracer(experiment="forensics")
    with observing(tracer=tracer):
        _force_divergence(mvedsua, client)

    bundle = mvedsua.runtime.last_divergence.forensics
    # The ring history is the lane's, bounded by the one forensics K.
    assert 0 < len(bundle["ring_last_k"]) <= FORENSICS_LAST_K
    kinds = tracer.kind_tally()
    assert kinds.get("divergence.forensics") == 1
    assert tracer.metrics()["divergence.detected"]["value"] == 1
    # The run log carries the whole bundle: its record, read back from
    # the written file, is the runtime's.
    path = tmp_path / "run.jsonl"
    tracer.write(str(path))
    [record] = [json.loads(line) for line in path.read_text().splitlines()
                if '"divergence.forensics"' in line]
    assert record["bundle"] == bundle
    assert record["at"] == bundle["at"]
    # The message is the bundle's own ``reason``: the event keeps no
    # copy of it.
    assert "reason" not in record and bundle["reason"]


def test_forensics_bundle_write_json():
    _, mvedsua, client = _diverging_deployment()
    _force_divergence(mvedsua, client)
    bundle = mvedsua.runtime.last_divergence.forensics
    # The bundle is plain data: it survives JSON unchanged.
    assert json.loads(json.dumps(bundle)) == bundle
    assert set(bundle) == {"at", "version", "leader_version", "reason",
                           "diverging", "ring_last_k", "ring_pending",
                           "rules_fired", "expected_records",
                           "issued_records"}


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
