"""Chained updates: a release history walked one Mvedsua update at a time.

A deployment applies the catalog's adjacent pairs
(``config.versions.update_pairs``) in order, each through the full
fork / validate / promote / finalize lifecycle; a step that rolls back
leaves the last good version serving.
"""

from repro.apps import app, deploy
from repro.core import Stage
from repro.mve.dsl import RuleSet
from repro.sim.engine import SECOND
from repro.workloads.ftpclient import FtpClient


def vsftpd_deployment(start="1.1.0"):
    stack = deploy("vsftpd", start)
    stack.kernel.fs.write_file("/f.txt", b"chained")
    client = FtpClient(stack.kernel, stack.server.address)
    client.login(stack.runtime)
    return stack, client


def test_full_vsftpd_chain_via_registry():
    stack, client = vsftpd_deployment()
    mvedsua = stack.runtime
    now = SECOND
    for old, new in app("vsftpd").versions.update_pairs("vsftpd"):
        assert mvedsua.current_version == old
        assert stack.update(new, now).ok, (old, new)
        _, data = client.retr(mvedsua, "f.txt", now=now + SECOND)
        assert data == b"chained"
        assert mvedsua.stage is Stage.OUTDATED_LEADER, (old, new)
        mvedsua.promote(now + 2 * SECOND)
        mvedsua.finalize(now + 3 * SECOND)
        now += 4 * SECOND
    assert mvedsua.current_version == "2.0.6"
    assert len(mvedsua.history) == 13
    assert all(timeline.succeeded() for timeline in mvedsua.history)


def test_chain_stops_at_target():
    stack, _ = vsftpd_deployment()
    mvedsua = stack.runtime
    now = SECOND
    for old, new in app("vsftpd").versions.update_pairs("vsftpd"):
        if old == "1.2.0":
            break
        assert stack.update(new, now).ok, (old, new)
        mvedsua.promote(now + 2 * SECOND)
        mvedsua.finalize(now + 3 * SECOND)
        now += 4 * SECOND
    assert mvedsua.current_version == "1.2.0"
    assert len(mvedsua.history) == 4


def test_chain_stops_on_divergence():
    """Missing rules abort the chain at the first pair that needs them,
    leaving the last good version serving."""
    stack, client = vsftpd_deployment()
    mvedsua = stack.runtime
    now = SECOND
    for old, new in app("vsftpd").versions.update_pairs("vsftpd"):
        assert stack.update(new, now, rules=RuleSet()).ok, (old, new)
        client.command(mvedsua, b"SYST", now=now + SECOND)  # text deltas
        if mvedsua.stage is not Stage.OUTDATED_LEADER:
            break
        mvedsua.promote(now + 2 * SECOND)
        mvedsua.finalize(now + 3 * SECOND)
        now += 4 * SECOND
    # 1.1.0 -> 1.1.1 needs no rules and completes; 1.1.1 -> 1.1.2 (the
    # banner/SYST rewording) diverges and stops the chain.
    assert (old, new) == ("1.1.1", "1.1.2")
    assert mvedsua.current_version == "1.1.1"
    assert [t.succeeded() for t in mvedsua.history] == [True, False]
    assert mvedsua.history[-1].rolled_back()
    assert mvedsua.runtime.last_divergence is not None


def test_redis_chain_via_registry():
    stack = deploy("redis", "2.0.0")
    mvedsua = stack.runtime
    client = stack.client()
    client.command(mvedsua, b"SET durable value")
    now = SECOND
    for old, new in app("redis").versions.update_pairs("redis"):
        assert stack.update(new, now).ok, (old, new)
        client.command(mvedsua, b"SET probe 1", now=now + SECOND)
        client.command(mvedsua, b"GET durable", now=now + SECOND)
        assert mvedsua.stage is Stage.OUTDATED_LEADER, (old, new)
        mvedsua.promote(now + 2 * SECOND)
        mvedsua.finalize(now + 3 * SECOND)
        now += 4 * SECOND
    assert mvedsua.current_version == "2.0.3"
    assert all(timeline.succeeded() for timeline in mvedsua.history)
    assert client.command(mvedsua, b"GET durable",
                          now=100 * SECOND) == b"$5\r\nvalue\r\n"
