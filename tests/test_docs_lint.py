"""The docs-lint gate (tools/check_docs.py).

The checker is deliberately outside ``src/`` (it lints the repo, not
the simulator), so it is loaded here by file path.  The end-to-end
test is the same invocation CI's ``docs-lint`` job makes: the shipped
docs must be clean.  The unit tests plant one defect per check to
prove the checker can actually fail.
"""

import importlib.util
import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "tools", "check_docs.py")


def _load():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestShippedDocsClean(unittest.TestCase):
    """CI parity: the checked-in docs pass the lint."""

    def test_checker_exits_zero_on_shipped_docs(self):
        result = subprocess.run([sys.executable, CHECKER],
                                capture_output=True, text=True, cwd=REPO,
                                timeout=300)
        self.assertEqual(result.returncode, 0,
                         f"docs lint failed:\n{result.stdout}{result.stderr}")
        self.assertIn("0 problem(s)", result.stdout)


class TestCheckerCatchesDefects(unittest.TestCase):
    """Each check must be able to report a planted defect."""

    @classmethod
    def setUpClass(cls):
        cls.mod = _load()
        cls.checker = cls.mod.CliChecker()

    def test_probe_found_the_subcommand_vocabulary(self):
        for sub in ("chaos", "fleet", "perf", "lint", "openloop"):
            self.assertIn(sub, self.checker._subcommands)

    def test_unknown_flag_is_reported(self):
        problems = []
        self.checker.check_command("repro", " chaos kvstore --bogus-flag",
                                   "t:1", problems)
        self.assertEqual(len(problems), 1)
        self.assertIn("--bogus-flag", problems[0])

    def test_unknown_operand_is_reported(self):
        problems = []
        self.checker.check_command("repro", " fleet no-such-scenario",
                                   "t:1", problems)
        self.assertEqual(len(problems), 1)
        self.assertIn("no-such-scenario", problems[0])

    def test_unknown_subcommand_is_reported(self):
        problems = []
        self.checker.check_command("repro", " frobnicate", "t:1", problems)
        self.assertEqual(len(problems), 1)

    def test_missing_module_is_reported(self):
        problems = []
        self.checker.check_command("repro.no.such.module", "", "t:1",
                                   problems)
        self.assertEqual(len(problems), 1)

    def test_real_commands_pass(self):
        problems = []
        for module, rest in (
                ("repro", " fleet canary-kvstore --distributed"),
                ("repro", " chaos kvstore-distributed"),
                ("repro", " perf --scenario fig7-ring-2^5"),
                ("repro", " --help"),
                ("repro.bench.distring", "")):
            self.checker.check_command(module, rest, "t:1", problems)
        self.assertEqual(problems, [])

    def test_elided_and_bare_commands_are_skipped(self):
        problems = []
        self.checker.check_command("repro", " chaos … more", "t:1", problems)
        self.checker.check_command("repro", "", "t:2", problems)
        self.assertEqual(problems, [])

    def test_broken_link_is_reported(self):
        problems = []
        page = os.path.join(REPO, "docs", "architecture.md")
        self.mod.check_links(page, "see [gone](no-such-page.md)", problems)
        self.assertEqual(len(problems), 1)
        self.assertIn("no-such-page.md", problems[0])

    def test_site_table_drift_is_reported_both_ways(self):
        header = "| kind | layer | interval |"
        with open(os.path.join(REPO, "docs", "observability.md"),
                  encoding="utf-8") as handle:
            page = handle.read()
        problems = []
        self.mod.check_site_table("p.md", page, header, "spans", problems)
        self.assertEqual(problems, [])
        # A kind the table lacks, a declared kind gone, a wrong layer.
        drifted = page.replace("| `net.ring` | net |",
                               "| `net.rung` | net |") \
            .replace("| `request` | gateway |", "| `request` | mve |")
        self.mod.check_site_table("p.md", drifted, header, "spans",
                                  problems)
        self.assertEqual(problems, [
            "p.md: `request` has layer gateway, not mve",
            "p.md: `net.rung` is in the spans table but not in "
            "repro.sites.TABLE",
            "p.md: `net.ring` (spans) is in repro.sites.TABLE but not in "
            "the table"])
        self.mod.check_site_table("p.md", "no table here", header, "spans",
                                  problems)
        self.assertIn("no table headed", problems[-1])

    def test_claim_id_drift_is_reported_both_ways(self):
        with open(os.path.join(REPO, "docs", "calibration.md"),
                  encoding="utf-8") as handle:
            calibration = handle.read()
        with open(os.path.join(REPO, "DESIGN.md"),
                  encoding="utf-8") as handle:
            design = handle.read()
        problems = []
        self.mod.check_claim_ids(calibration, design, problems)
        self.assertEqual(problems, [])
        # A fit no longer cited, a prediction and a stranger cited as
        # fits, an index row pointing at no ledger row.
        self.mod.check_claim_ids(
            calibration.replace("`fig7.kitsune`", "`fig7.masking`, "
                                "`fig7.kitsunes`"),
            design.replace("| `e3.` ·", "| `e4.`, `e3.retry` ·"), problems)
        self.assertEqual(problems, [
            "docs/calibration.md: cites `fig7.kitsunes`, which is not in "
            "the claims ledger",
            "docs/calibration.md: cites `fig7.masking`, which is an "
            "emergent claim",
            "docs/calibration.md: calibrated claim `fig7.kitsune` is not "
            "cited",
            "DESIGN.md §3 E3: no claim id starts with `e3.retry`"])

    def test_resolving_link_passes(self):
        problems = []
        page = os.path.join(REPO, "docs", "architecture.md")
        self.mod.check_links(
            page, "see [d](distributed.md) and [r](../README.md) "
                  "and [x](https://example.com) and [a](#anchor)",
            problems)
        self.assertEqual(problems, [])


if __name__ == "__main__":
    unittest.main()
