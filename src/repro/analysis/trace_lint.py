"""Trace-annotation and span-hygiene lint.

A rule that emits *fewer* records than it matches removes leader
syscalls from the follower's expected stream — by construction it can
mask a real divergence: had the follower misbehaved at exactly the
dropped position, the checker would never see the mismatch.  The paper
accepts such rules for intentional cross-version differences (e.g.
Memcached's ``noreply`` suppressing the reply write), but forensics
then depends on the trace saying *which* intentional difference the
rule covers.

* **MVE501 untagged-suppression** — a rule that ``suppresses`` (the
  DSL sets it when a rule emits fewer records than it matches, or a
  ``*`` wildcard) carries no :attr:`RewriteRule.trace_tag`; divergence
  forensics on a run where this rule fired cannot distinguish "covered
  intentional difference" from "silently swallowed bug".

The MVE9xx family lints exported ``repro-span/1`` span files (see
:mod:`repro.obs.spans`): the SLO engine's critical-path attribution
walks parent links and sums closed intervals, so a malformed span
degrades every report built on top of it.

* **MVE901 unclosed-span** (warning) — ``end_ns`` is null in the final
  artifact; the span contributes zero overlap to attribution, silently
  under-blaming whatever it measured.
* **MVE902 orphan-parent** (error) — ``parent`` references a span id
  that appears nowhere in the file; the causal chain from a violated
  request to its waits is broken.
* **MVE903 negative-duration** (error) — ``end_ns < start_ns``; a
  virtual-time interval can never run backwards, so the producing
  instrumentation is buggy.

``lint_spans`` checks hygiene only; schema shape is
:func:`repro.obs.spans.validate_span_lines`'s job, and lines that do
not parse as span objects are skipped here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.findings import Finding, Severity
from repro.dsu.version import ServerVersion
from repro.mve.dsl.rules import RuleSet
from repro.report import decode, read_lines

ANALYZER = "trace"


def lint_trace_tags(ruleset: RuleSet, *, app: str, pair: str,
                    old_version: Optional[ServerVersion] = None,
                    new_version: Optional[ServerVersion] = None
                    ) -> List[Finding]:
    """MVE501 over one update pair's rule set."""
    findings: List[Finding] = []
    for rule in ruleset.rules:
        if not rule.suppresses or rule.trace_tag:
            continue
        findings.append(Finding(
            code="MVE501",
            severity=Severity.WARNING,
            analyzer=ANALYZER,
            app=app,
            location=f"{pair}/{rule.name}",
            message=(
                f"rule {rule.name!r} suppresses records from the expected "
                f"stream but has no trace_tag; a divergence it masks "
                f"leaves no forensic marker — annotate the intentional "
                f"difference (e.g. trace_tag=\"{app}-{rule.name}\")"),
        ))
    return findings


def lint_spans(lines: Iterable[str], *, app: str = "spans",
               source: str = "<spans>") -> List[Finding]:
    """MVE901/902/903 span hygiene over ``repro-span/1`` JSONL lines.

    ``lines`` is the whole file including the header line; lines that
    fail to parse as span objects are skipped (run
    :func:`repro.obs.spans.validate_span_lines` for shape problems).
    """
    spans = []
    for index, line in enumerate(list(lines)[1:], start=2):
        try:
            payload = decode(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and isinstance(payload.get("span"),
                                                    int):
            spans.append((index, payload))
    known_ids = {payload["span"] for _, payload in spans}
    findings: List[Finding] = []
    for index, payload in spans:
        span_id = payload["span"]
        kind = payload.get("kind", "?")
        where = f"{source}:{index}"
        if payload.get("end_ns", None) is None:
            findings.append(Finding(
                code="MVE901", severity=Severity.WARNING,
                analyzer=ANALYZER, app=app, location=where,
                message=(f"span {span_id} ({kind}) was never closed; an "
                         f"open span contributes zero overlap to "
                         f"critical-path attribution, under-blaming "
                         f"whatever it measured"),
            ))
        parent = payload.get("parent")
        if parent is not None and parent not in known_ids:
            findings.append(Finding(
                code="MVE902", severity=Severity.ERROR,
                analyzer=ANALYZER, app=app, location=where,
                message=(f"span {span_id} ({kind}) references parent "
                         f"{parent}, which no span in this file has; "
                         f"the causal chain to its request is broken"),
            ))
        end_ns = payload.get("end_ns")
        start_ns = payload.get("start_ns")
        if isinstance(end_ns, int) and isinstance(start_ns, int) \
                and end_ns < start_ns:
            findings.append(Finding(
                code="MVE903", severity=Severity.ERROR,
                analyzer=ANALYZER, app=app, location=where,
                message=(f"span {span_id} ({kind}) ends at {end_ns} "
                         f"before it starts at {start_ns}; virtual "
                         f"time cannot run backwards, so the producing "
                         f"instrumentation is buggy"),
            ))
    return findings


def lint_span_file(path: str, *, app: str = "spans") -> List[Finding]:
    """Run :func:`lint_spans` over a JSONL span file on disk."""
    return lint_spans(read_lines(path), app=app, source=path)
