"""Tests for catalog-driven chained updates."""

import dataclasses

from repro.apps import app, deploy
from repro.core.chains import upgrade_chain
from repro.mve.dsl import RuleSet
from repro.sim.engine import SECOND
from repro.workloads.ftpclient import FtpClient


def vsftpd_deployment(start="1.1.0"):
    stack = deploy("vsftpd", start)
    stack.kernel.fs.write_file("/f.txt", b"chained")
    client = FtpClient(stack.kernel, stack.server.address)
    client.login(stack.runtime)
    return stack.kernel, stack.runtime, client


def test_full_vsftpd_chain_via_registry():
    _, mvedsua, client = vsftpd_deployment()

    def validate(deployment, now):
        client.retr(deployment, "f.txt", now=now)

    result = upgrade_chain(mvedsua, app("vsftpd"),
                           start_at=SECOND, validate=validate)
    assert result.completed
    assert result.final_version == "2.0.6"
    assert len(result.steps) == 13


def test_chain_stops_at_target():
    _, mvedsua, _ = vsftpd_deployment()
    result = upgrade_chain(mvedsua, app("vsftpd"),
                           start_at=SECOND, target="1.2.0")
    assert result.final_version == "1.2.0"
    assert len(result.steps) == 4


def test_chain_stops_on_divergence():
    """Missing rules abort the chain at the first pair that needs them,
    leaving the last good version serving."""
    _, mvedsua, client = vsftpd_deployment()

    def validate(deployment, now):
        client.command(deployment, b"SYST", now=now)  # trips text deltas

    no_rules = dataclasses.replace(
        app("vsftpd"), rules_for=lambda old, new: RuleSet())
    result = upgrade_chain(mvedsua, no_rules,
                           start_at=SECOND, validate=validate)
    assert not result.completed
    # 1.1.0 -> 1.1.1 needs no rules and completes; 1.1.1 -> 1.1.2 (the
    # banner/SYST rewording) diverges and stops the chain.
    assert result.final_version == "1.1.1"
    assert result.steps[-1].completed is False
    assert "rolled back" in result.steps[-1].detail


def test_redis_chain_via_registry():
    stack = deploy("redis", "2.0.0")
    mvedsua = stack.runtime
    client = stack.client()
    client.command(mvedsua, b"SET durable value")

    def validate(deployment, now):
        client.command(deployment, b"SET probe 1", now=now)
        client.command(deployment, b"GET durable", now=now)

    result = upgrade_chain(mvedsua, app("redis"),
                           start_at=SECOND, validate=validate)
    assert result.completed
    assert result.final_version == "2.0.3"
    assert client.command(mvedsua, b"GET durable",
                          now=100 * SECOND) == b"$5\r\nvalue\r\n"
