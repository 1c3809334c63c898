"""mvelint analyzer 5: MVE501 untagged-suppression warnings."""

import dataclasses

from repro.analysis.findings import Severity
from repro.analysis.trace_lint import lint_trace_tags
from repro.mve.dsl.parser import parse_rules
from repro.mve.dsl.rules import RewriteRule, RuleSet, SyscallPattern
from repro.servers.kvstore import kv_rules
from repro.servers.memcached.rules import memcached_rules
from repro.syscalls.model import Sys


def _lint(ruleset):
    return lint_trace_tags(ruleset, app="test", pair="1.0->2.0")


def _dropping(name, guard, trace_tag=None):
    """A rule built without the DSL that drops the reply write."""
    return RewriteRule(
        name, [SyscallPattern(Sys.READ, predicate=guard),
               SyscallPattern(Sys.WRITE)],
        lambda matched: matched[:1], trace_tag=trace_tag, suppresses=True)


def test_untagged_suppress_reply_warns():
    rules = RuleSet().add(
        _dropping("quiet", lambda data: data.startswith(b"set ")))
    findings = _lint(rules)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "MVE501"
    assert finding.severity is Severity.WARNING
    assert finding.analyzer == "trace"
    assert finding.location == "1.0->2.0/quiet"
    assert "trace_tag" in finding.message


def test_tagged_suppress_reply_is_clean():
    rules = RuleSet().add(
        _dropping("quiet", lambda data: True, trace_tag="test-quiet"))
    assert _lint(rules) == []


def test_tolerate_extra_reply_counts_as_suppressing():
    # Its wildcard write accepts any follower reply, so it also masks
    # content divergences and needs a tag.
    rules = RuleSet(parse_rules(
        "rule answer updated-leader: read(fd, s) => read(fd, s), write(fd, *)"))
    assert rules.rules[0].suppresses
    assert [finding.code for finding in _lint(rules)] == ["MVE501"]


def test_dsl_rule_dropping_records_is_suppressing():
    text = r'''
    rule drop_reply outdated-leader:
        read(fd, s), write(fd2, r) where startswith(s, "set ")
            => read(fd, s)
    '''
    rules = RuleSet()
    for rule in parse_rules(text):
        rules.add(rule)
    assert all(rule.suppresses for rule in rules.rules)
    assert [finding.code for finding in _lint(rules)] == ["MVE501"]


def test_one_to_one_dsl_rules_are_clean():
    # The kvstore Figure 4 rules rewrite records 1-to-1: no suppression,
    # no MVE501.
    assert _lint(kv_rules()) == []


def test_repo_memcached_catalog_is_tagged():
    # The in-tree noreply rules carry their trace tags; the shipped
    # catalog must stay MVE501-clean.
    findings = lint_trace_tags(memcached_rules("1.2.4", "1.2.5"),
                               app="memcached", pair="1.2.4->1.2.5")
    assert findings == []


def test_repo_vsftpd_tolerate_rules_are_tagged():
    # Each drops the leader's footprint of the command the old follower
    # rejects (open/write(-2), listen or stat): MVE501 needs a tag.
    from repro.servers.vsftpd.rules import TABLE1_RULE_COUNTS, vsftpd_rules
    tags, findings = {}, []
    for old, new, _ in TABLE1_RULE_COUNTS:
        rules = vsftpd_rules(old, new)
        findings += lint_trace_tags(rules, app="vsftpd", pair=f"{old}->{new}")
        tags.update((rule.name, rule.trace_tag) for rule in rules.rules
                    if rule.suppresses)
    assert findings == []
    assert tags == {"stou_tolerate": "vsftpd-stou",
                    "epsv_tolerate": "vsftpd-epsv",
                    "mdtm_tolerate": "vsftpd-mdtm"}


def test_run_app_registers_the_trace_analyzer():
    # Strip the trace tags from memcached's rules: run_app must now
    # surface MVE501, proving the analyzer is wired into the pipeline.
    from repro.apps import default_catalog
    from repro.analysis.cli import run_app

    def untagged_rules(old, new):
        rules = RuleSet()
        for rule in memcached_rules(old, new).rules:
            rules.add(dataclasses.replace(rule, trace_tag=None))
        return rules

    config = dataclasses.replace(default_catalog()["memcached"],
                                 rules_for=untagged_rules)
    report = run_app(config)
    codes = {finding.code for finding in report.findings}
    assert "MVE501" in codes
    assert all(finding.analyzer == "trace"
               for finding in report.findings
               if finding.code == "MVE501")
