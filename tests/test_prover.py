"""Tests for the MVE8xx symbolic divergence prover."""

import os
import random
import unittest

from repro.apps import default_catalog, load_catalog
from repro.analysis.effects import (CLIENT_FD, ANY, REPS, ProtocolModel,
                                    read_record, reduce_abstract)
from repro.analysis.findings import Severity
from repro.analysis.prover import catalog_hash, certificate_json, prove_app
from repro.mve.dsl.rules import Direction
from repro.syscalls.model import Sys, SyscallRecord

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "gap_catalog.py")


def _gap_config():
    return load_catalog(FIXTURE)["gapkv"]


class GapCatalogFindings(unittest.TestCase):
    """The seeded fixture trips every MVE8xx code."""

    @classmethod
    def setUpClass(cls):
        cls.result = prove_app(_gap_config())
        cls.findings = cls.result.report.sorted_findings()

    def _find(self, code, fragment):
        hits = [f for f in self.findings
                if f.code == code and fragment in f.location]
        self.assertTrue(hits, f"no {code} finding at {fragment!r}; got "
                        f"{[(f.code, f.location) for f in self.findings]}")
        return hits[0]

    def test_mve801_uncovered_command_is_confirmed_error(self):
        finding = self._find("MVE801", "outdated-leader command DEL")
        self.assertIs(finding.severity, Severity.ERROR)
        self.assertIn("CONFIRMED", finding.message)

    def test_mve801_witness_carries_command_lines(self):
        finding = self._find("MVE801", "outdated-leader command DEL")
        self.assertIn("DEL", finding.message)

    def test_mve802_wrong_rule_effect(self):
        finding = self._find("MVE802", "outdated-leader command ZAP")
        self.assertIs(finding.severity, Severity.ERROR)
        self.assertIn("zap_wrong", finding.message)
        self.assertIn("CONFIRMED", finding.message)

    def test_mve803_shadowed_rule(self):
        finding = self._find("MVE803", "rule set_narrow")
        self.assertIs(finding.severity, Severity.WARNING)

    def test_mve804_non_confluent_overlap(self):
        finding = self._find("MVE804", "set_broad+set_narrow")
        self.assertIs(finding.severity, Severity.WARNING)

    def test_spurious_finding_downgraded(self):
        # COUNT is declared in release 2's vocabulary but the handler
        # rejects it: statically an ERROR, dynamically clean.
        finding = self._find("MVE801", "outdated-leader command COUNT")
        self.assertIs(finding.severity, Severity.WARNING)
        self.assertIn("SPURIOUS", finding.message)

    def test_certificate_counts(self):
        summary = self.result.certificate["summary"]
        self.assertGreaterEqual(summary["confirmed_mve801_errors"], 1)
        self.assertGreaterEqual(summary["spurious_downgraded"], 1)
        self.assertFalse(self.result.ok)


class CertificateStability(unittest.TestCase):
    def test_two_runs_byte_identical(self):
        first = certificate_json(prove_app(_gap_config()).certificate)
        second = certificate_json(prove_app(_gap_config()).certificate)
        self.assertEqual(first, second)

    def test_catalog_hash_is_stable_and_content_sensitive(self):
        self.assertEqual(catalog_hash(_gap_config()),
                         catalog_hash(_gap_config()))
        self.assertNotEqual(catalog_hash(_gap_config()),
                            catalog_hash(default_catalog()["kvstore"]))


class ShippedCatalogCertifies(unittest.TestCase):
    """The acceptance gate: every shipped app certifies divergence-free
    (zero confirmed MVE801 errors) with a clean certificate."""

    def test_all_apps_certify_clean(self):
        for name, config in default_catalog().items():
            with self.subTest(app=name):
                result = prove_app(config)
                self.assertTrue(result.ok, name)
                summary = result.certificate["summary"]
                self.assertEqual(
                    summary["confirmed_mve801_errors"], 0, name)


class DifferentialProperty(unittest.TestCase):
    """The abstract engine over-approximates the concrete RuleEngine.

    For randomized command sequences (singleton representative sets, so
    tri-state matching collapses to exact matching), at least one
    abstract outcome must reproduce the concrete engine's emitted
    stream and fired-rule sequence, on every catalog pair and stage.
    """

    def _check_pair(self, config, old, new, rng):
        ruleset = config.rules_for(old, new)
        if ruleset is None or not ruleset.rules:
            return
        old_v = config.versions.get(config.name, old)
        new_v = config.versions.get(config.name, new)
        model = ProtocolModel(old_v, new_v, ruleset.rules)
        lines = [probe for cls in model.classes
                 for probe in model.probes[cls]]
        for stage in (Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER):
            stage_rules = ruleset.for_stage(stage)
            for _ in range(25):
                sequence = [rng.choice(lines)
                            for _ in range(rng.randint(1, 4))]
                self._check_sequence(ruleset, stage_rules, stage, sequence)

    def _check_sequence(self, ruleset, stage_rules, stage, sequence):
        engine = ruleset.engine_for_stage(stage)
        for line in sequence:
            engine.offer(SyscallRecord(Sys.READ, fd=CLIENT_FD, data=line,
                                       result=len(line)))
        engine.flush()
        concrete = []
        record = engine.next_expected()
        while record is not None:
            concrete.append(record)
            record = engine.next_expected()

        window = tuple(read_record((line,)) for line in sequence)
        outcomes = reduce_abstract(stage_rules, window, flush=True)
        matches = [o for o in outcomes
                   if self._covers(o, concrete, tuple(engine.fired))]
        self.assertTrue(
            matches,
            f"stage={stage.value} sequence={sequence!r}: concrete "
            f"emitted={[(r.name, r.data) for r in concrete]} "
            f"fired={engine.fired} not covered by any of "
            f"{len(outcomes)} abstract outcome(s)")

    @staticmethod
    def _covers(outcome, concrete, fired):
        if outcome.fired != fired:
            return False
        emitted = outcome.emitted + outcome.window
        if len(emitted) != len(concrete):
            return False
        for abstract, record in zip(emitted, concrete):
            if abstract.kind is not record.name:
                return False
            if abstract.payload[0] == ANY:
                continue
            if abstract.payload[0] != REPS:
                return False  # no dynamic inputs in this test
            if record.data not in abstract.payload[1]:
                return False
        return True

    def test_over_approximation_on_every_catalog_pair(self):
        rng = random.Random(20260807)
        for name, config in default_catalog().items():
            for old, new in config.versions.update_pairs(name):
                with self.subTest(app=name, pair=f"{old}->{new}"):
                    self._check_pair(config, old, new, rng)

    def test_over_approximation_on_gap_fixture(self):
        rng = random.Random(11)
        config = _gap_config()
        self._check_pair(config, "1", "2", rng)


if __name__ == "__main__":
    unittest.main()
