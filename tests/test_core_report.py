"""What happened to each update, when, and why.

A deployment's ``history`` holds one Figure 2 timeline per closed
update attempt, oldest first; the runtime's event log, cut to an
attempt's window (fork to finalize or rollback), names what ended it.
"""

import dataclasses

from repro.apps import app, deploy
from repro.dsu.transform import TransformRegistry
from repro.errors import ServerCrash
from repro.servers.kvstore import KVStoreV1, kv_transforms, xform_drop_table
from repro.sim.engine import SECOND

TRIGGERS = ("divergence", "follower-crash", "leader-crash")


def deployment(transforms=None):
    kwargs = {} if transforms is None else {"transforms": transforms}
    stack = deploy("kvstore", "1.0", **kwargs)
    return stack, stack.client()


def buggy_transforms():
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", xform_drop_table)
    return registry


def window(mvedsua, timeline):
    """The kinds of the runtime events inside one attempt's window."""
    end = timeline.t6_finalized if timeline.t6_finalized is not None \
        else timeline.rolled_back_at
    return [event.kind for event in mvedsua.runtime.events
            if timeline.t1_forked <= event.at <= end]


def test_no_history():
    stack, client = deployment()
    mvedsua = stack.runtime
    client.command(mvedsua, b"PUT a 1")
    assert mvedsua.history == []
    assert mvedsua.last_outcome() is None
    assert mvedsua.timeline is None


def test_finalized_update_post_mortem():
    stack, client = deployment()
    mvedsua = stack.runtime
    client.command(mvedsua, b"PUT a 1")
    stack.update("2.0", SECOND)
    client.command(mvedsua, b"GET a", now=2 * SECOND)
    mvedsua.promote(3 * SECOND)
    mvedsua.finalize(4 * SECOND)
    [timeline] = mvedsua.history
    assert timeline.succeeded() and not timeline.rolled_back()
    stamps = [timeline.t1_forked, timeline.t2_updated,
              timeline.t3_caught_up, timeline.t4_demote,
              timeline.t5_promoted, timeline.t6_finalized]
    assert None not in stamps and stamps == sorted(stamps)
    assert timeline.t6_finalized - timeline.t1_forked > 0
    kinds = window(mvedsua, timeline)
    assert not set(kinds) & set(TRIGGERS)
    assert kinds[-1] == "follower-terminated"


def test_rolled_back_post_mortem_names_the_divergence():
    stack, client = deployment(buggy_transforms())
    mvedsua = stack.runtime
    client.command(mvedsua, b"PUT k v")
    stack.update("2.0", SECOND)
    client.command(mvedsua, b"GET k", now=2 * SECOND)
    [timeline] = mvedsua.history
    assert timeline.rolled_back() and not timeline.succeeded()
    assert timeline.t5_promoted is None
    assert [kind for kind in window(mvedsua, timeline)
            if kind in TRIGGERS] == ["divergence"]
    assert mvedsua.runtime.last_divergence is not None


def test_failover_post_mortem():
    class CrashV1(KVStoreV1):
        def handle(self, heap, request, session=None, io=None):
            if request.startswith(b"BOOM"):
                raise ServerCrash("old bug")
            return super().handle(heap, request, session, io)

    # A candidate build of 1.0 that crashes on one request.
    config = dataclasses.replace(app("kvstore"),
                                 candidates={"1.0-crash": CrashV1})
    stack = deploy(config, "1.0-crash")
    mvedsua, client = stack.runtime, stack.client()
    client.command(mvedsua, b"PUT a 1")
    stack.update("2.0", SECOND)
    client.command(mvedsua, b"BOOM", now=2 * SECOND)
    [timeline] = mvedsua.history
    # The new version took over because the old one crashed: permanent.
    assert timeline.succeeded() and not timeline.rolled_back()
    assert timeline.t5_promoted == timeline.t6_finalized
    kinds = window(mvedsua, timeline)
    assert [kind for kind in kinds if kind in TRIGGERS] == ["leader-crash"]
    assert "follower-promoted-after-crash" in kinds
    assert mvedsua.current_version == "2.0"


def test_multiple_attempts_reported_in_order():
    stack, client = deployment(buggy_transforms())
    mvedsua = stack.runtime
    client.command(mvedsua, b"PUT k v")
    # Attempt 1: rolls back on divergence.
    stack.update("2.0", SECOND)
    client.command(mvedsua, b"GET k", now=2 * SECOND)
    # Attempt 2 with the fixed transformer: succeeds.
    mvedsua.kitsune.transforms = kv_transforms()
    stack.update("2.0", 10 * SECOND)
    client.command(mvedsua, b"GET k", now=11 * SECOND)
    mvedsua.promote(12 * SECOND)
    mvedsua.finalize(13 * SECOND)
    first, second = mvedsua.history
    assert (first.rolled_back(), second.succeeded()) == (True, True)
    assert first.rolled_back_at < second.t1_forked
    assert "divergence" in window(mvedsua, first)
    assert "divergence" not in window(mvedsua, second)
    assert mvedsua.last_outcome() is second
