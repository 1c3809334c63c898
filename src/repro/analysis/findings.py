"""Structured findings emitted by the mvelint analyzers.

Every analyzer returns a list of :class:`Finding` objects; the CLI
aggregates them into a :class:`LintReport` whose JSON form is stable so
CI can gate on it.  Finding codes are grouped by analyzer:

====== ==========================================================
Range  Analyzer
====== ==========================================================
MVE1xx rewrite-rule lint (:mod:`repro.analysis.rules_lint`)
MVE2xx coverage cross-check (:mod:`repro.analysis.coverage`)
MVE3xx state-transformer audit (:mod:`repro.analysis.transform_audit`)
MVE4xx update-path audit (:mod:`repro.analysis.paths`)
MVE5xx trace-annotation lint (:mod:`repro.analysis.trace_lint`)
MVE6xx fault-plan lint (:mod:`repro.analysis.specs`)
MVE7xx fleet-topology lint (:mod:`repro.analysis.specs`)
MVE8xx symbolic divergence prover (:mod:`repro.analysis.prover`)
MVE9xx span-hygiene lint (:mod:`repro.analysis.trace_lint`)
MVE10xx workload-spec lint (:mod:`repro.analysis.specs`)
====== ==========================================================

:data:`RULE_METADATA` names every code for external report formats
(SARIF); :meth:`LintReport.sorted_findings` defines the one canonical
ordering and dedupes identical findings emitted by multiple analyzers.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List


#: Short descriptions for every finding code, keyed by code.  External
#: report formats (SARIF's ``rules`` array) and docs are generated from
#: this table, so adding an analyzer means adding its codes here.
RULE_METADATA: Dict[str, str] = {
    "MVE101": "duplicate rule name within one rule set",
    "MVE102": "rule unreachable: an earlier rule matches a prefix of "
              "everything it matches",
    "MVE103": "overlapping rules with different emit sequences; "
              "priority order silently decides",
    "MVE104": "rule can never fire: it matches response text its "
              "leader stage never produces",
    "MVE105": "rule pattern pins a concrete fd assigned at runtime",
    "MVE106": "payload variable bound but never used",
    "MVE107": "rules crowd one first-pattern dispatch bucket",
    "MVE201": "command delta with no covering rewrite rule",
    "MVE202": "response-text delta with no covering rewrite rule",
    "MVE203": "rule references a command neither version speaks",
    "MVE301": "state transformer raised or returned no heap",
    "MVE302": "state transformer drops live heap keys or entries",
    "MVE303": "state transformer changes a value's kind or returns a "
              "non-heap",
    "MVE304": "state transformer mutates its input yet returns a "
              "different heap",
    "MVE305": "state transformer is non-deterministic across equal "
              "heaps",
    "MVE306": "transformed entry carries a null field the new version "
              "must backfill",
    "MVE401": "update pair without a registered state transformer",
    "MVE402": "rule-set factory raised or returned no rule set",
    "MVE403": "release unreachable via registered transformers",
    "MVE404": "transformer references an unknown version",
    "MVE501": "suppressing rule without a forensic trace tag",
    "MVE601": "fault plan references an unknown injection site or kind",
    "MVE602": "fault trigger is malformed",
    "MVE701": "upgrade wave wider than the replication factor",
    "MVE702": "upgrade wave covers every replica of a shard at once",
    "MVE703": "malformed fleet topology (counts below one)",
    "MVE704": "cross-node MVE pairs without a declared ring-link budget",
    "MVE801": "reachable configuration where versions diverge and no "
              "rule fires",
    "MVE802": "a rule fires on the diverging transition but its effect "
              "still diverges",
    "MVE803": "rule never fires in any reachable configuration",
    "MVE804": "two rules match the same window with different effects "
              "(non-confluent overlap)",
    "MVE901": "span never closed (end_ns is null at end of run)",
    "MVE902": "span references a parent id no span in the file has",
    "MVE903": "span ends before it starts (end_ns < start_ns)",
    "MVE1001": "unknown arrival process or key distribution",
    "MVE1002": "non-positive or malformed arrival rate / dwell time",
    "MVE1003": "Zipf exponent outside the supported (0, 4] range",
    "MVE1004": "more concurrent connections than logical clients",
    "MVE1005": "malformed workload-spec shape",
}


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe defects that *will* surface at runtime
    (a guaranteed divergence, a corrupted heap, a dead rule) and gate
    CI; ``WARNING`` findings are suspicious but tolerable (e.g. a
    post-promotion divergence the paper's §3.3.2 explicitly permits);
    ``INFO`` findings are stylistic.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One defect located by one analyzer."""

    code: str
    severity: Severity
    analyzer: str
    app: str
    location: str
    message: str
    #: True when the app's catalog entry deliberately accepts this
    #: finding (with a justification in the catalog source); allowlisted
    #: findings are reported but never gate.
    allowlisted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "analyzer": self.analyzer,
            "app": self.app,
            "location": self.location,
            "message": self.message,
            "allowlisted": self.allowlisted,
        }

    def render(self) -> str:
        """One human-readable report line."""
        suffix = "  (allowlisted)" if self.allowlisted else ""
        return (f"{self.severity.value.upper():7s} {self.code} "
                f"[{self.analyzer}] {self.location}: {self.message}{suffix}")


@dataclass
class LintReport:
    """All findings from one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: Apps that were analyzed (reported even when clean).
    apps: List[str] = field(default_factory=list)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def deduped_findings(self) -> List[Finding]:
        """The raw findings with cross-analyzer duplicates folded.

        Two analyzers occasionally agree on the same defect (same code,
        severity, app, location, and message — e.g. an overlap both the
        rule lint and the prover can see); reporting it twice inflates
        the counts and makes CI diffs noisy.  The first emitter (by
        analyzer name, for determinism) wins; an allowlisted copy
        allowlists the survivor.
        """
        merged: Dict[tuple, Finding] = {}
        for finding in self.findings:
            key = (finding.code, finding.severity, finding.app,
                   finding.location, finding.message)
            kept = merged.get(key)
            if kept is None:
                merged[key] = finding
                continue
            winner = min(kept, finding, key=lambda f: f.analyzer)
            if (kept.allowlisted or finding.allowlisted) \
                    and not winner.allowlisted:
                winner = replace(winner, allowlisted=True)
            merged[key] = winner
        return list(merged.values())

    def sorted_findings(self) -> List[Finding]:
        """The canonical report order: severity rank, then code, then
        subject (app, location, message) — fully deterministic and
        independent of analyzer execution order.  Deduped."""
        return sorted(self.deduped_findings(),
                      key=lambda f: (f.severity.rank, f.code, f.app,
                                     f.location, f.message))

    def count(self, severity: Severity, *,
              include_allowlisted: bool = False) -> int:
        return sum(1 for f in self.deduped_findings()
                   if f.severity is severity
                   and (include_allowlisted or not f.allowlisted))

    @property
    def has_errors(self) -> bool:
        """True when any non-allowlisted ERROR finding exists."""
        return self.count(Severity.ERROR) > 0

    def as_dict(self) -> Dict[str, Any]:
        deduped = self.deduped_findings()
        return {
            "apps": list(dict.fromkeys(self.apps)),
            "findings": [f.as_dict() for f in self.sorted_findings()],
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "infos": self.count(Severity.INFO),
            "allowlisted": sum(1 for f in deduped if f.allowlisted),
            "ok": not self.has_errors,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def apply_allowlist(self, app: str, allow) -> None:
        """Mark findings matched by ``allow`` as accepted.

        ``allow`` is an iterable of ``(code, location_substring)``
        pairs; a finding is allowlisted when its code matches exactly
        and the substring occurs in its location.
        """
        rules = tuple(allow)
        if not rules:
            return
        for index, finding in enumerate(self.findings):
            if finding.app != app or finding.allowlisted:
                continue
            for code, fragment in rules:
                if finding.code == code and fragment in finding.location:
                    self.findings[index] = replace(finding, allowlisted=True)
                    break
