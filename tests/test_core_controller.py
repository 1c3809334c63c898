"""What an operator reads off a deployment, and what moves it forward.

Status is the runtime's own fields: ``mvedsua.stage``, the leader's and
follower's ``version_name``, ``last_divergence`` and the ``history``
timelines; which rules fired is the run log's ``rule.fired`` events.
Promotion and finalization are the operator's calls: a deployment never
leaves ``OUTDATED_LEADER`` by itself, ``promote`` and ``finalize`` are
the only ways forward, and a rollback returns it to ``SINGLE_LEADER``
with ``history[-1]`` rolled back.
"""

import pytest

from repro.apps import deploy
from repro.core import Stage
from repro.dsu.transform import TransformRegistry
from repro.errors import SimulationError
from repro.servers.kvstore import xform_drop_table
from repro.sim.engine import SECOND
from tests.counting import fired_rules


def deployment(transforms=None):
    kwargs = {} if transforms is None else {"transforms": transforms}
    stack = deploy("kvstore", "1.0", **kwargs)
    return stack, stack.client()


def buggy_deployment():
    """The 1.0 -> 2.0 transformer drops the table: the first read of an
    old key during catch-up diverges."""
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", xform_drop_table)
    return deployment(transforms=registry)


class TestOperatorConsole:
    def test_single_leader_status(self):
        stack, client = deployment()
        mvedsua = stack.runtime
        client.command(mvedsua, b"PUT k v")
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.runtime.leader.version_name == "1.0"
        assert mvedsua.runtime.follower is None
        assert mvedsua.runtime.last_divergence is None
        assert mvedsua.history == []

    def test_outdated_leader_status(self):
        with fired_rules() as fired:
            stack, client = deployment()
            mvedsua = stack.runtime
            stack.update("2.0", SECOND)
            client.command(mvedsua, b"PUT-number x 1", now=2 * SECOND)
        assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.leader.version_name == "1.0"
        assert mvedsua.runtime.follower.version_name == "2.0"
        assert len(fired) >= 1

    def test_rollback_counted(self):
        stack, client = buggy_deployment()
        mvedsua = stack.runtime
        client.command(mvedsua, b"PUT k v")
        stack.update("2.0", SECOND)
        client.command(mvedsua, b"GET k", now=2 * SECOND)
        assert [t.rolled_back() for t in mvedsua.history] == [True]
        assert mvedsua.runtime.last_divergence is not None
        assert mvedsua.runtime.follower is None

    def test_render_status_is_one_screen(self):
        """Every status field an operator reads has a printable value
        in every stage, with or without a follower."""
        stack, client = deployment()
        mvedsua = stack.runtime
        runtime = mvedsua.runtime
        seen = []
        for step in (lambda: None,
                     lambda: stack.update("2.0", SECOND),
                     lambda: mvedsua.promote(2 * SECOND),
                     lambda: mvedsua.finalize(3 * SECOND)):
            step()
            client.command(mvedsua, b"PUT k v", now=4 * SECOND)
            follower = runtime.follower
            seen.append((mvedsua.stage.value, runtime.leader.version_name,
                         follower.version_name if follower else None))
        assert seen == [("single-leader", "1.0", None),
                        ("outdated-leader", "1.0", "2.0"),
                        ("updated-leader", "2.0", "1.0"),
                        ("single-leader", "2.0", None)]


class TestAutoPilot:
    """The lifecycle guarantees a warm-up policy on top would rely on."""

    def traffic(self, mvedsua, client, *, seconds, start):
        """One request per virtual second; the stage seen after each."""
        stages = set()
        for tick in range(seconds):
            client.command(mvedsua, b"PUT k%d v" % tick,
                           now=(start + tick) * SECOND)
            stages.add(mvedsua.stage)
        return stages

    def test_full_auto_lifecycle(self):
        stack, client = deployment()
        mvedsua = stack.runtime
        stack.update("2.0", SECOND)
        assert self.traffic(mvedsua, client, seconds=10, start=2) \
            == {Stage.OUTDATED_LEADER}
        mvedsua.promote(12 * SECOND)
        assert self.traffic(mvedsua, client, seconds=10, start=13) \
            == {Stage.UPDATED_LEADER}
        mvedsua.finalize(23 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.current_version == "2.0"
        assert mvedsua.last_outcome().succeeded()
        timeline = mvedsua.last_outcome()
        assert timeline.t2_updated <= timeline.t4_demote \
            <= timeline.t5_promoted <= timeline.t6_finalized

    def test_does_not_promote_before_warmup(self):
        stack, client = deployment()
        mvedsua = stack.runtime
        stack.update("2.0", SECOND)
        # An hour of virtual time later nothing has moved it on.
        assert self.traffic(mvedsua, client, seconds=10, start=3600) \
            == {Stage.OUTDATED_LEADER}
        assert mvedsua.timeline.t5_promoted is None
        assert mvedsua.history == []

    def test_does_not_promote_without_traffic(self):
        stack, client = deployment()
        mvedsua = stack.runtime
        stack.update("2.0", SECOND)
        # Sparse traffic and idle pumps, far apart.
        for tick in range(5):
            client.command(mvedsua, b"PUT k%d v" % tick,
                           now=(10 + tick * 100) * SECOND)
            mvedsua.pump((60 + tick * 100) * SECOND)
            assert mvedsua.stage is Stage.OUTDATED_LEADER
        assert mvedsua.runtime.follower.version_name == "2.0"

    def test_idle_in_single_leader(self):
        stack, _ = deployment()
        mvedsua = stack.runtime
        mvedsua.pump(SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.timeline is None
        # With no update in flight there is nothing to move forward.
        with pytest.raises(SimulationError):
            mvedsua.promote(2 * SECOND)
        with pytest.raises(SimulationError):
            mvedsua.finalize(2 * SECOND)
        assert mvedsua.history == []

    def test_rollback_resets_the_pilot(self):
        stack, client = buggy_deployment()
        mvedsua = stack.runtime
        client.command(mvedsua, b"PUT seed v")
        stack.update("2.0", SECOND)
        # The divergence rolls the update back before any promotion.
        client.command(mvedsua, b"GET seed", now=10 * SECOND)
        assert mvedsua.stage is Stage.SINGLE_LEADER
        assert mvedsua.timeline is None
        assert mvedsua.history[-1].rolled_back()
        assert mvedsua.history[-1].t5_promoted is None
        with pytest.raises(SimulationError):
            mvedsua.promote(11 * SECOND)
        assert mvedsua.current_version == "1.0"
