"""Update-path audit.

A dynamic update from release N to N+1 needs *both* programmer
artifacts: a state transformer (Kitsune side) and a rewrite-rule set
(Varan side, possibly empty when the releases are syscall-identical).
This audit walks the app's release order and the transformer registry:

* **MVE401 missing-transformer** — a consecutive release pair has no
  registered transformer; ``request_update`` would raise
  :class:`~repro.errors.NoUpdatePath` in production.
* **MVE402 broken-ruleset** — the app's rule-set factory raises or
  returns nothing for a consecutive pair (an *empty* rule set is fine;
  a crashing factory is not).  :func:`usable_pairs`, the walk every
  per-pair analyzer iterates, skips exactly those pairs.
* **MVE403 unreachable-version** — a registered release that cannot be
  reached from the initial release via any chain of registered
  transformer edges: it can be deployed fresh but never updated to.
* **MVE404 dangling-edge** — a transformer registered for a version the
  app does not have (usually a typo in the version string).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from repro.analysis.findings import Finding, Severity
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.errors import NoUpdatePath
from repro.mve.dsl.rules import RuleSet

ANALYZER = "paths"


def usable_pairs(app: str, versions: VersionRegistry,
                 rules_for: Callable[[str, str], RuleSet]
                 ) -> Iterator[Tuple[str, str, ServerVersion,
                                     ServerVersion, RuleSet]]:
    """``(old, new, old_version, new_version, ruleset)`` for each
    consecutive release pair whose versions resolve and whose rule-set
    factory returns a rule set; the pairs it skips are the ones
    :func:`audit_paths` reports as MVE402."""
    for old, new in versions.update_pairs(app):
        try:
            old_version = versions.get(app, old)
            new_version = versions.get(app, new)
        except NoUpdatePath:  # pragma: no cover - registry is consistent
            continue
        try:
            ruleset = rules_for(old, new)
        except Exception:
            continue
        if ruleset is not None:
            yield old, new, old_version, new_version, ruleset


def audit_paths(app: str, versions: VersionRegistry,
                transforms: TransformRegistry,
                rules_for: Callable[[str, str], RuleSet]) -> List[Finding]:
    """Audit the app's update graph; returns the findings."""
    findings: List[Finding] = []

    def emit(code: str, severity: Severity, location: str,
             message: str) -> None:
        findings.append(Finding(code, severity, ANALYZER, app, location,
                                message))

    releases = versions.releases(app)
    known = set(releases)

    for old, new in versions.update_pairs(app):
        location = f"{old}->{new}"
        if not transforms.has(app, old, new):
            emit("MVE401", Severity.ERROR, location,
                 f"no state transformer registered for {old} -> {new}: "
                 f"this update path raises NoUpdatePath at runtime")
        try:
            ruleset = rules_for(old, new)
        except Exception as exc:
            emit("MVE402", Severity.ERROR, location,
                 f"rule-set factory raised for {old} -> {new}: "
                 f"{type(exc).__name__}: {exc}")
            continue
        if ruleset is None:
            emit("MVE402", Severity.ERROR, location,
                 f"rule-set factory returned no rule set for "
                 f"{old} -> {new} (return an empty RuleSet when no "
                 f"rules are needed)")

    edges = transforms.pairs(app)
    for old, new in edges:
        for end in (old, new):
            if end not in known:
                emit("MVE404", Severity.WARNING, f"{old}->{new}",
                     f"transformer references unknown version "
                     f"{end!r} (known: {', '.join(releases) or 'none'})")

    if releases:
        reachable = {releases[0]}
        frontier = [releases[0]]
        adjacency = {}
        for old, new in edges:
            adjacency.setdefault(old, []).append(new)
        while frontier:
            for successor in adjacency.get(frontier.pop(), ()):
                if successor in known and successor not in reachable:
                    reachable.add(successor)
                    frontier.append(successor)
        for release in releases:
            if release not in reachable:
                emit("MVE403", Severity.WARNING, f"version {release}",
                     f"release {release} is unreachable from "
                     f"{releases[0]} via registered transformers: it "
                     f"can be started fresh but never updated to")
    return findings
