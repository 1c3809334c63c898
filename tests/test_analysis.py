"""Tests for mvelint (repro.analysis): the analyzers, the catalog,
and the ``python -m repro lint`` CLI (the fleet-topology analyzer is
covered in tests/test_fleet.py)."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    audit_paths,
    audit_transforms,
    check_coverage,
    default_catalog,
    lint_rules,
    lint_spec,
    run_app,
    run_catalog,
    seeded_heap,
)
from repro.analysis.paths import usable_pairs
from repro.analysis.prover import prove_app
from repro.apps import AppConfig
from repro.chaos import Fault, FaultPlan, Trigger, at_stage, on_call
from repro.cli import main
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.mve.dsl import (Direction, RewriteRule, RuleSet, SyscallPattern,
                           parse_rules)
from repro.syscalls.model import Sys
from tests.fixtures import bad_rules, bad_transforms
from tests.fixtures.bad_catalog import APP, BadKVVersion
from tests.fixtures.bad_catalog import catalog as bad_catalog
from tests.fixtures.bad_workloads import APP as BADLOAD_APP
from tests.fixtures.bad_workloads import catalog as bad_workloads_catalog

FIXTURE_CATALOG = str(Path(__file__).parent / "fixtures" / "bad_catalog.py")
FIXTURE_WORKLOADS = str(Path(__file__).parent / "fixtures"
                        / "bad_workloads.py")


def codes(findings):
    return {f.code for f in findings}


def write_rule(name, guard, text=None,
               direction=Direction.OUTDATED_LEADER):
    """A rule built without the DSL (opaque guard, no AST) that expects
    ``text`` — or the leader's own bytes — in place of a guarded write."""
    def action(matched):
        return [matched[0].with_data(text if text is not None
                                     else matched[0].data)]
    return RewriteRule(name, [SyscallPattern(Sys.WRITE, predicate=guard)],
                       action, direction)


def by_code(findings, code):
    return [f for f in findings if f.code == code]


class _TextVersion(ServerVersion):
    """Bare version carrying only response texts (for rule lint)."""

    app = "toy"

    def __init__(self, name, texts):
        self.name = name
        self._texts = frozenset(texts)

    def response_texts(self):
        return self._texts


class _TextKV(BadKVVersion):
    """BadKV with overridable static response texts (for coverage)."""

    def __init__(self, name, extra, texts):
        super().__init__(name, extra)
        self._texts = frozenset(texts)

    def response_texts(self):
        return self._texts


# ---------------------------------------------------------------------------
# Analyzer 1: rule-set lint
# ---------------------------------------------------------------------------


class TestRulesLint:
    def test_shadowed_rule_is_error(self):
        findings = lint_rules(bad_rules.shadowed_rules())
        flagged = by_code(findings, "MVE102")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR
        assert "narrow" in flagged[0].location
        assert "broad" in flagged[0].message

    def test_conflicting_overlap_is_warning(self):
        findings = lint_rules(bad_rules.conflicting_rules())
        assert "MVE102" not in codes(findings)
        flagged = by_code(findings, "MVE103")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.WARNING
        assert "by_prefix" in flagged[0].message

    def test_duplicate_name_reported_once(self):
        findings = lint_rules(bad_rules.duplicate_name_rules())
        flagged = by_code(findings, "MVE101")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR

    def test_dead_direction_is_error(self):
        old = _TextVersion("1", [b"old banner\r\n"])
        new = _TextVersion("2", [b"new banner\r\n"])
        rules = bad_rules.dead_direction_rules(b"old banner\r\n",
                                               b"new banner\r\n")
        findings = lint_rules(rules, old_version=old, new_version=new)
        flagged = by_code(findings, "MVE104")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR

    def test_correctly_tagged_direction_is_clean(self):
        old = _TextVersion("1", [b"old banner\r\n"])
        new = _TextVersion("2", [b"new banner\r\n"])
        rules = RuleSet().add(write_rule(
            "forward", lambda d: d == b"new banner\r\n", b"old banner\r\n",
            direction=Direction.UPDATED_LEADER))
        findings = lint_rules(rules, old_version=old, new_version=new)
        assert "MVE104" not in codes(findings)

    def test_pinned_fd_is_warning(self):
        findings = lint_rules(bad_rules.pinned_fd_rules())
        flagged = by_code(findings, "MVE105")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.WARNING
        assert "fd 5" in flagged[0].message

    def test_unused_binding_is_info(self):
        findings = lint_rules(bad_rules.unused_var_rules())
        flagged = by_code(findings, "MVE106")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.INFO
        assert "'s'" in flagged[0].message

    def test_hot_dispatch_bucket_is_warning(self):
        # Six same-stage rules all keyed (WRITE, ANY_FD): the dispatch
        # index cannot tell them apart, so every WRITE probes all six.
        rules = RuleSet()
        for i in range(6):
            rules.add(write_rule(f"w{i}", lambda d, i=i:
                                 d.startswith(b"%d" % i)))
        findings = lint_rules(rules)
        flagged = by_code(findings, "MVE107")
        assert len(flagged) == 1  # one finding per bucket, not per rule
        assert flagged[0].severity is Severity.WARNING
        assert "6" in flagged[0].message
        assert "ANY_FD" in flagged[0].message

    def test_dispatch_buckets_are_per_stage(self):
        # The same six rules split across the two stages: no stage's
        # engine ever sees more than three candidates, so no finding.
        rules = RuleSet()
        for i in range(6):
            direction = (Direction.OUTDATED_LEADER if i % 2
                         else Direction.UPDATED_LEADER)
            rules.add(write_rule(f"w{i}", lambda d, i=i:
                                 d.startswith(b"%d" % i),
                                 direction=direction))
        assert "MVE107" not in codes(lint_rules(rules))

    def test_small_buckets_stay_quiet(self):
        rules = RuleSet()
        for i in range(4):  # at the limit, not over it
            rules.add(write_rule(f"w{i}", lambda d, i=i:
                                 d.startswith(b"%d" % i)))
        assert "MVE107" not in codes(lint_rules(rules))

    def test_shipped_kvstore_rules_are_clean(self):
        from repro.servers.kvstore.rules import kv_rules
        from repro.servers.kvstore.versions import kvstore_registry

        registry = kvstore_registry()
        findings = lint_rules(kv_rules(), app="kvstore",
                              old_version=registry.get("kvstore", "1.0"),
                              new_version=registry.get("kvstore", "2.0"))
        assert findings == []


# ---------------------------------------------------------------------------
# Analyzer 2: coverage cross-check
# ---------------------------------------------------------------------------


class TestCoverage:
    def test_uncovered_added_command(self):
        old = BadKVVersion("1", frozenset())
        new = BadKVVersion("2", frozenset({"BOOM"}))
        findings = check_coverage(APP, old, new, RuleSet())
        flagged = by_code(findings, "MVE201")
        assert {f.severity for f in flagged} == {Severity.ERROR,
                                                 Severity.WARNING}
        assert all("BOOM" in f.location for f in flagged)
        # The paper's asymmetry: the validation window gates, the
        # post-promotion window (§3.3.2) merely warns.
        for finding in flagged:
            if finding.severity is Severity.ERROR:
                assert "outdated-leader" in finding.location
            else:
                assert "updated-leader" in finding.location

    def test_covering_rule_silences_mve201(self):
        old = BadKVVersion("1", frozenset())
        new = BadKVVersion("2", frozenset({"BOOM"}))
        rules = RuleSet()
        for rule in parse_rules(r'''
            rule boom both:
                read(fd, s) where startswith(s, "BOOM")
                    => read(fd, "bad-cmd\r\n")
        '''):
            rules.add(rule)
        findings = check_coverage(APP, old, new, rules)
        assert "MVE201" not in codes(findings)

    def test_uncovered_response_text_delta(self):
        old = _TextKV("1", frozenset(), [b"old banner\r\n"])
        new = _TextKV("2", frozenset(), [b"new banner\r\n"])
        findings = check_coverage(APP, old, new, RuleSet())
        flagged = by_code(findings, "MVE202")
        assert {f.severity for f in flagged} == {Severity.ERROR,
                                                 Severity.WARNING}

    def test_covering_write_rules_silence_mve202(self):
        old = _TextKV("1", frozenset(), [b"old banner\r\n"])
        new = _TextKV("2", frozenset(), [b"new banner\r\n"])
        rules = RuleSet()
        rules.add(write_rule("fwd", lambda d: d == b"old banner\r\n",
                             b"new banner\r\n",
                             direction=Direction.OUTDATED_LEADER))
        rules.add(write_rule("rev", lambda d: d == b"new banner\r\n",
                             b"old banner\r\n",
                             direction=Direction.UPDATED_LEADER))
        findings = check_coverage(APP, old, new, rules)
        assert "MVE202" not in codes(findings)

    def test_unknown_command_reference(self):
        old = BadKVVersion("1", frozenset())
        new = BadKVVersion("2", frozenset())
        findings = check_coverage(APP, old, new,
                                  bad_rules.shadowed_rules())
        flagged = by_code(findings, "MVE203")
        assert flagged, "rules referencing 'PUT' should be flagged"
        assert all(f.severity is Severity.WARNING for f in flagged)

    @pytest.mark.parametrize("guard, covered", [
        (lambda d: d.startswith(b"ZAP"), True),
        # Raises on the bare b"ZAP\r\n" probe, matches b"ZAP a\r\n".
        (lambda d: d.split()[0] == b"ZAP" and d.split()[1] == b"a", True),
        (lambda d: d.split()[9] == b"a", False),
    ], ids=["total", "raises-on-one-probe", "raises-on-every-probe"])
    def test_coverage_and_prover_agree_on_what_covers(self, guard, covered):
        """MVE201 and the prover's anchoring ask one question over one
        probe family: a guard covers when some probe matches, a probe
        that raises counting as no match."""
        from repro.analysis.effects import ProtocolModel
        from repro.analysis.state_space import explore
        old = BadKVVersion("1", frozenset())
        new = BadKVVersion("2", frozenset({"ZAP"}))
        rules = RuleSet().add(RewriteRule(
            "zap", [SyscallPattern(Sys.READ, predicate=guard)],
            lambda matched: [matched[0].with_data(b"bad-cmd\r\n")]))
        stage = Direction.OUTDATED_LEADER
        linted = [f for f in by_code(check_coverage(APP, old, new, rules),
                                     "MVE201")
                  if stage.value in f.location]
        explored = explore(ProtocolModel(old, new, rules.rules), rules,
                           stage, old, new)
        proved = [d for d in explored.divergences if d.cls == "ZAP"]
        assert (not linted, not proved) == (covered, covered)


# ---------------------------------------------------------------------------
# Analyzer 3: transformer audit
# ---------------------------------------------------------------------------


def _audit(transformer):
    versions = VersionRegistry()
    versions.register(BadKVVersion("1", frozenset()))
    versions.register(BadKVVersion("2", frozenset()))
    transforms = TransformRegistry()
    transforms.register(APP, "1", "2", transformer)
    return audit_transforms(APP, versions, transforms,
                            (b"SET alpha one", b"SET beta two"))


class TestTransformAudit:
    def test_seeded_heap_replays_requests(self):
        heap = seeded_heap(BadKVVersion("1", frozenset()),
                           (b"SET a 1", b"SET b 2", b"garbage"))
        assert heap["table"] == {"a": "1", "b": "2"}
        assert heap["stats"]["requests"] == 3

    def test_key_drop(self):
        flagged = by_code(_audit(bad_transforms.xform_drop_table), "MVE302")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR
        assert "'table'" in flagged[0].message

    def test_entry_drop(self):
        flagged = by_code(_audit(bad_transforms.xform_drop_entries),
                          "MVE302")
        assert len(flagged) == 1
        assert "entries dropped" in flagged[0].message

    def test_kind_change(self):
        flagged = by_code(_audit(bad_transforms.xform_change_kind), "MVE303")
        assert len(flagged) == 1
        assert "dict -> sequence" in flagged[0].message

    def test_non_heap_return(self):
        flagged = by_code(_audit(bad_transforms.xform_not_a_heap), "MVE303")
        assert len(flagged) == 1
        assert "not a heap" in flagged[0].message

    def test_input_aliasing(self):
        findings = _audit(bad_transforms.xform_alias_input)
        assert "MVE304" in codes(findings)
        assert "MVE305" not in codes(findings)

    def test_in_place_mutation_is_accepted(self):
        def in_place(heap):
            heap["table"] = dict(heap["table"])
            return heap

        assert _audit(in_place) == []

    def test_non_determinism(self):
        findings = _audit(bad_transforms.make_nondeterministic())
        flagged = by_code(findings, "MVE305")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR

    def test_uninitialised_field(self):
        findings = _audit(bad_transforms.xform_none_field)
        flagged = by_code(findings, "MVE306")
        assert flagged
        assert all(f.severity is Severity.WARNING for f in flagged)
        assert all("'typ'" in f.message for f in flagged)

    def test_raising_transformer(self):
        flagged = by_code(_audit(bad_transforms.xform_raises), "MVE301")
        assert len(flagged) == 1
        assert "raised" in flagged[0].message

    def test_none_returning_transformer(self):
        flagged = by_code(_audit(bad_transforms.xform_returns_none),
                          "MVE301")
        assert len(flagged) == 1
        assert "no heap" in flagged[0].message

    def test_shipped_kvstore_transforms_are_clean(self):
        from repro.servers.kvstore.transforms import kv_transforms
        from repro.servers.kvstore.versions import kvstore_registry

        findings = audit_transforms(
            "kvstore", kvstore_registry(), kv_transforms(),
            (b"PUT alpha one", b"PUT beta two"))
        assert [f for f in findings if f.severity is Severity.ERROR] == []


# ---------------------------------------------------------------------------
# Analyzer 4: update-path audit
# ---------------------------------------------------------------------------


def _three_versions():
    versions = VersionRegistry()
    for name in ("1", "2", "3"):
        versions.register(BadKVVersion(name, frozenset()))
    return versions


class TestPathAudit:
    def test_missing_transformer_and_unreachable_version(self):
        transforms = TransformRegistry()
        transforms.register(APP, "1", "2", lambda heap: dict(heap))
        findings = audit_paths(APP, _three_versions(), transforms,
                               lambda old, new: RuleSet())
        missing = by_code(findings, "MVE401")
        assert len(missing) == 1
        assert missing[0].location == "2->3"
        assert missing[0].severity is Severity.ERROR
        unreachable = by_code(findings, "MVE403")
        assert len(unreachable) == 1
        assert "3" in unreachable[0].location
        assert unreachable[0].severity is Severity.WARNING

    def test_broken_ruleset_factory(self):
        transforms = TransformRegistry()
        transforms.register(APP, "1", "2", lambda heap: dict(heap))
        transforms.register(APP, "2", "3", lambda heap: dict(heap))

        def raising(old, new):
            raise KeyError(f"{old}->{new}")

        findings = audit_paths(APP, _three_versions(), transforms, raising)
        assert len(by_code(findings, "MVE402")) == 2

        findings = audit_paths(APP, _three_versions(), transforms,
                               lambda old, new: None)
        assert len(by_code(findings, "MVE402")) == 2

    def test_dangling_transformer_edge(self):
        versions = VersionRegistry()
        versions.register(BadKVVersion("1", frozenset()))
        versions.register(BadKVVersion("2", frozenset()))
        transforms = TransformRegistry()
        transforms.register(APP, "1", "2", lambda heap: dict(heap))
        transforms.register(APP, "2", "9", lambda heap: dict(heap))
        findings = audit_paths(APP, versions, transforms,
                               lambda old, new: RuleSet())
        flagged = by_code(findings, "MVE404")
        assert len(flagged) == 1
        assert "'9'" in flagged[0].message
        assert codes(findings) == {"MVE404"}

    def test_complete_graph_is_clean(self):
        transforms = TransformRegistry()
        transforms.register(APP, "1", "2", lambda heap: dict(heap))
        transforms.register(APP, "2", "3", lambda heap: dict(heap))
        findings = audit_paths(APP, _three_versions(), transforms,
                               lambda old, new: RuleSet())
        assert findings == []

    def test_lint_and_prover_skip_the_pairs_mve402_reports(self):
        # Each release adds a command, so a pair the walk did not skip
        # would show an uncovered command (MVE201) or a divergence.
        versions, transforms = VersionRegistry(), TransformRegistry()
        for name, extra in (("1", ""), ("2", "BOOM"), ("3", "BOOM ZAP"),
                            ("4", "BOOM ZAP ZIP")):
            versions.register(BadKVVersion(name, frozenset(extra.split())))
        for old, new in versions.update_pairs(APP):
            transforms.register(APP, old, new, lambda heap: dict(heap))

        def rules_for(old, new):
            if old == "1":
                raise KeyError(f"{old}->{new}")
            return None if old == "2" else RuleSet()

        config = AppConfig(name=APP, versions=versions,
                           transforms=transforms, rules_for=rules_for)
        assert [pair[:2] for pair in usable_pairs(
            APP, versions, rules_for)] == [("3", "4")]
        findings = run_app(config).findings
        assert {f.location for f in by_code(findings, "MVE402")} == \
            {"1->2", "2->3"}
        assert not [f for f in findings if f.code[:4] in ("MVE1", "MVE2")
                    and not f.location.startswith("3->4")]
        assert by_code(findings, "MVE201")      # 3->4 was linted
        certificate = prove_app(config, replay=False).certificate
        assert [(pair["old"], pair["new"])
                for pair in certificate["pairs"]] == [("3", "4")]


# ---------------------------------------------------------------------------
# MVE6xx: fault-plan lint
# ---------------------------------------------------------------------------


class TestChaosLint:
    def test_unknown_site_is_mve601_error(self):
        plan = FaultPlan("p", (Fault("kernel.reed", "econnreset",
                                     on_call(1)),))
        findings = lint_spec(APP, "fault_plans", plan)
        flagged = by_code(findings, "MVE601")
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR
        assert "kernel.reed" in flagged[0].message

    def test_illegal_kind_at_site_is_mve601_error(self):
        plan = FaultPlan("p", (Fault("mve.leader", "corrupt-record",
                                     on_call(1)),))
        findings = lint_spec(APP, "fault_plans", plan)
        flagged = by_code(findings, "MVE601")
        assert len(flagged) == 1
        assert "corrupt-record" in flagged[0].message

    def test_malformed_trigger_is_mve602_error(self):
        plan = FaultPlan("p", (
            Fault("kernel.read", "econnreset", on_call(0)),
            Fault("kernel.write", "epipe", at_stage("promoted")),
            Fault("sim.event", "drop", Trigger("predicate")),
        ))
        findings = lint_spec(APP, "fault_plans", plan)
        flagged = by_code(findings, "MVE602")
        assert len(flagged) == 3
        assert all(f.severity is Severity.ERROR for f in flagged)

    def test_valid_plan_is_clean(self):
        plan = FaultPlan("p", (
            Fault("mve.follower", "corrupt-record", on_call(2)),
            Fault("kernel.read", "short-read", at_stage("outdated-leader"),
                  param={"bytes": 5}),
        ))
        assert lint_spec(APP, "fault_plans", plan) == []


# ---------------------------------------------------------------------------
# Catalog + CLI
# ---------------------------------------------------------------------------


class TestCatalogAndCli:
    def test_default_catalog_has_no_blocking_findings(self):
        report = run_catalog(default_catalog())
        assert not report.has_errors
        assert sorted(report.apps) == ["kvstore", "memcached", "redis",
                                       "snort", "vsftpd"]
        # The three §3.3.2-tolerated kvstore deltas are surfaced but
        # explicitly accepted in the catalog.
        allowlisted = [f for f in report.findings if f.allowlisted]
        assert {f.code for f in allowlisted} == {"MVE201"}
        assert len(allowlisted) == 3

    def test_bad_catalog_trips_every_analyzer(self):
        report = run_app(bad_catalog()[APP])
        assert report.has_errors
        per_analyzer = {f.analyzer: set() for f in report.findings}
        for finding in report.findings:
            per_analyzer[finding.analyzer].add(finding.code)
        assert "MVE102" in per_analyzer["rules"]
        assert "MVE201" in per_analyzer["coverage"]
        assert "MVE302" in per_analyzer["transform"]
        assert "MVE401" in per_analyzer["paths"]
        assert "MVE403" in per_analyzer["paths"]
        assert "MVE501" in per_analyzer["trace"]
        assert "MVE601" in per_analyzer["chaos-lint"]

    def test_cli_default_catalog_exits_zero(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["allowlisted"] == 3

    def test_cli_bad_catalog_exits_nonzero(self, capsys):
        assert main(["lint", "--json", "--catalog", FIXTURE_CATALOG]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        found = {f["code"] for f in payload["findings"]}
        assert {"MVE102", "MVE201", "MVE302", "MVE401",
                "MVE403", "MVE501", "MVE601"} <= found

    def test_cli_app_filter(self, capsys):
        assert main(["lint", "--json", "--app", "vsftpd"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["apps"] == ["vsftpd"]

    def test_cli_unknown_app_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--app", "nosuch"])
        assert "unknown app(s): nosuch" in capsys.readouterr().err

    def test_human_output_mentions_summary(self, capsys):
        assert main(["lint", "--app", "snort"]) == 0
        out = capsys.readouterr().out
        assert "mvelint: analyzed snort" in out
        assert "ok: no blocking findings" in out


class TestWorkloadLint:
    """Satellite: the MVE10xx workload-spec analyzer, pinned against
    tests/fixtures/bad_workloads.py (one factory per code)."""

    def test_bad_workloads_trip_each_code_exactly_once(self):
        report = run_app(bad_workloads_catalog()[BADLOAD_APP])
        assert report.has_errors
        workload = [f for f in report.findings
                    if f.analyzer == "workload-lint"]
        assert sorted(f.code for f in workload) == [
            "MVE1001", "MVE1002", "MVE1003", "MVE1004", "MVE1005"]
        assert all(f.severity is Severity.ERROR for f in workload)
        # Every finding names the app and the offending spec.
        for finding in workload:
            assert finding.app == BADLOAD_APP
            assert BADLOAD_APP in finding.location
        # The broken specs are the catalog's only defects.
        assert {f.analyzer for f in report.findings} == {"workload-lint"}

    def test_cli_bad_workloads_exits_nonzero(self, capsys):
        assert main(["lint", "--json", "--catalog",
                     FIXTURE_WORKLOADS]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        found = {f["code"] for f in payload["findings"]}
        assert {"MVE1001", "MVE1002", "MVE1003",
                "MVE1004", "MVE1005"} <= found

    def test_default_catalog_specs_are_clean(self):
        for name, config in default_catalog().items():
            for factory in config.workload_specs:
                assert lint_spec(name, "workload_specs", factory()) == []


class TestReportDedupeAndOrdering:
    """Satellite: LintReport folds cross-analyzer duplicates and sorts
    findings deterministically (severity rank, code, subject)."""

    @staticmethod
    def _finding(code="MVE201", severity=Severity.ERROR, analyzer="a",
                 app="app", location="loc", message="msg",
                 allowlisted=False):
        from repro.analysis import Finding
        return Finding(code, severity, analyzer, app, location, message,
                       allowlisted)

    def test_identical_findings_from_two_analyzers_dedupe(self):
        from repro.analysis import LintReport
        report = LintReport(apps=["app"])
        report.extend([self._finding(analyzer="coverage"),
                       self._finding(analyzer="prove")])
        assert len(report.deduped_findings()) == 1
        assert report.count(Severity.ERROR) == 1
        # First analyzer name wins, deterministically.
        assert report.sorted_findings()[0].analyzer == "coverage"

    def test_allowlisted_copy_allowlists_the_survivor(self):
        from repro.analysis import LintReport
        report = LintReport(apps=["app"])
        report.extend([self._finding(analyzer="prove", allowlisted=True),
                       self._finding(analyzer="coverage")])
        survivor = report.sorted_findings()[0]
        assert survivor.allowlisted
        assert not report.has_errors

    def test_distinct_messages_do_not_dedupe(self):
        from repro.analysis import LintReport
        report = LintReport(apps=["app"])
        report.extend([self._finding(message="one"),
                       self._finding(message="two")])
        assert len(report.deduped_findings()) == 2

    def test_ordering_is_severity_code_subject(self):
        from repro.analysis import LintReport
        report = LintReport(apps=["app"])
        report.extend([
            self._finding(code="MVE301", severity=Severity.WARNING),
            self._finding(code="MVE101", severity=Severity.WARNING),
            self._finding(code="MVE801", severity=Severity.ERROR),
            self._finding(code="MVE101", severity=Severity.WARNING,
                          location="aaa"),
        ])
        ordered = [(f.severity.value, f.code, f.location)
                   for f in report.sorted_findings()]
        assert ordered == [("error", "MVE801", "loc"),
                           ("warning", "MVE101", "aaa"),
                           ("warning", "MVE101", "loc"),
                           ("warning", "MVE301", "loc")]

    def test_ordering_independent_of_insertion_order(self):
        import random
        from repro.analysis import LintReport
        base = [self._finding(code=c, severity=s, location=l)
                for c, s, l in
                [("MVE101", Severity.ERROR, "x"),
                 ("MVE201", Severity.WARNING, "y"),
                 ("MVE801", Severity.INFO, "z"),
                 ("MVE801", Severity.ERROR, "w")]]
        rng = random.Random(7)
        reference = None
        for _ in range(5):
            shuffled = list(base)
            rng.shuffle(shuffled)
            report = LintReport(apps=["app"])
            report.extend(shuffled)
            rendered = [f.render() for f in report.sorted_findings()]
            if reference is None:
                reference = rendered
            assert rendered == reference


class TestCliExitCodesAndFormats:
    """Satellite: exit-code contract (0/1/2) and report formats."""

    def test_exit_zero_on_clean(self, capsys):
        assert main(["lint", "--app", "snort"]) == 0
        capsys.readouterr()

    def test_exit_one_on_error_findings(self, capsys):
        assert main(["lint", "--catalog", FIXTURE_CATALOG]) == 1
        capsys.readouterr()

    def test_exit_two_on_analyzer_crash(self, capsys, monkeypatch):
        import repro.analysis.cli as cli_mod
        def boom(*args, **kwargs):
            raise RuntimeError("analyzer exploded")
        monkeypatch.setattr(cli_mod, "run_catalog", boom)
        assert main(["lint", "--app", "snort"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_format_json_matches_json_flag_byte_for_byte(self, capsys):
        assert main(["lint", "--json", "--app", "kvstore"]) == 0
        via_flag = capsys.readouterr().out
        assert main(["lint", "--format", "json", "--app", "kvstore"]) == 0
        via_format = capsys.readouterr().out
        assert via_flag == via_format

    def test_conflicting_format_flags_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--json", "--format", "sarif"])
        capsys.readouterr()

    def test_sarif_document_shape(self, capsys):
        assert main(["lint", "--format", "sarif", "--app", "kvstore"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "mvelint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        # Every analyzer's codes are registered, MVE1xx through MVE8xx.
        for code in ("MVE101", "MVE201", "MVE301", "MVE401", "MVE501",
                     "MVE601", "MVE701", "MVE801", "MVE804"):
            assert code in rule_ids
        # kvstore's three allowlisted MVE201 findings are suppressed.
        results = run["results"]
        assert len(results) == 3
        assert all(r["ruleId"] == "MVE201" for r in results)
        assert all(r["suppressions"][0]["kind"] == "inSource"
                   for r in results)

    def test_sarif_levels_map_severities(self, capsys):
        assert main(["lint", "--format", "sarif", "--catalog",
                     FIXTURE_CATALOG]) == 1
        doc = json.loads(capsys.readouterr().out)
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert "error" in levels

    def test_lint_prove_flag_runs_analyzer_eight(self, capsys):
        assert main(["lint", "--json", "--app", "kvstore", "--prove"]) == 0
        payload = json.loads(capsys.readouterr().out)
        prover_findings = [f for f in payload["findings"]
                           if f["analyzer"] == "prove"]
        assert prover_findings
        assert all(f["allowlisted"] for f in prover_findings)
