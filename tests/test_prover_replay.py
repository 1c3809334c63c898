"""Tests for witness-to-scenario compilation and dynamic adjudication."""

import os
import unittest

from repro.apps import load_catalog
from repro.analysis.prover import prove_app
from repro.analysis.witness import (Witness, compile_witness,
                                    replay_witness)
from repro.analysis.state_space import Step
from repro.chaos.plans import witness_plan

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "gap_catalog.py")


def _gap_config():
    return load_catalog(FIXTURE)["gapkv"]


class WitnessReplay(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = _gap_config()
        cls.result = prove_app(cls.config)

    def _witness(self, cls_name, stage):
        for witness, replay in self.result.witnesses:
            if witness.cls == cls_name and witness.stage == stage:
                return witness, replay
        self.fail(f"no witness for {cls_name} in {stage}")

    def test_real_divergence_is_confirmed_with_forensics(self):
        witness, replay = self._witness("DEL", "outdated-leader")
        self.assertEqual(replay.status, "confirmed")
        self.assertIsNotNone(replay.forensics)
        # The bundle is the runtime's real ForensicsBundle dict.
        self.assertIn("diverging", replay.forensics)
        self.assertIn("ring_last_k", replay.forensics)

    def test_coarse_abstraction_is_spurious(self):
        witness, replay = self._witness("COUNT", "outdated-leader")
        self.assertEqual(replay.status, "spurious")

    def test_updated_leader_witness_replays_after_promotion(self):
        witness, replay = self._witness("DEL", "updated-leader")
        self.assertEqual(replay.status, "confirmed")

    def test_replay_is_deterministic(self):
        witness, _ = self._witness("DEL", "outdated-leader")
        first = replay_witness(self.config, witness)
        second = replay_witness(self.config, witness)
        self.assertEqual(first.status, second.status)
        self.assertEqual(first.detail, second.detail)

    def test_scenario_carries_fault_free_chaos_plan(self):
        witness, _ = self._witness("DEL", "outdated-leader")
        scenario = compile_witness(self.config, witness)
        self.assertEqual(scenario.plan.faults, ())
        self.assertIn("witness:", scenario.plan.name)

    def test_witness_command_lines_round_trip(self):
        witness, _ = self._witness("DEL", "outdated-leader")
        lines = witness.command_lines()
        self.assertTrue(lines)
        self.assertTrue(all("\r" not in line for line in lines))
        entry = witness.as_dict()
        self.assertEqual(len(entry["steps"]), len(lines))


class ReplayHarnessSafety(unittest.TestCase):
    def test_unknown_version_yields_error_not_exception(self):
        witness = Witness(app="gapkv", old="1", new="99",
                          stage="outdated-leader", code="MVE801",
                          cls="DEL", kind="accept-asymmetry",
                          steps=(Step("DEL", b"DEL a b\r\n", True),),
                          detail="")
        result = replay_witness(_gap_config(), witness)
        self.assertEqual(result.status, "error")

    def test_witness_plan_is_fault_free(self):
        plan = witness_plan("gapkv:MVE801:DEL")
        self.assertEqual(plan.name, "witness:gapkv:MVE801:DEL")
        self.assertEqual(plan.faults, ())


if __name__ == "__main__":
    unittest.main()
