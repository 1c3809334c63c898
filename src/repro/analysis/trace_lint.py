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

The MVE9xx family lints the span records of exported ``repro-run/1``
run logs (see :mod:`repro.obs.trace`; event records are skipped): the
SLO engine's critical-path attribution follows parent links by position
and sums closed intervals, so a malformed span degrades every report
built on top of it.

* **MVE901 unclosed-span** (warning) — ``end`` is null in the final
  artifact; the span contributes zero overlap to attribution, silently
  under-blaming whatever it measured.
* **MVE902 orphan-parent** (error) — ``parent`` is not the id of a span
  earlier in the file (it names no span, the span itself, or a later
  one), or the span ids do not run 1…n in file order; either way a
  parent link followed by position lands on the wrong span and the
  causal chain from a violated request to its waits is broken.
* **MVE903 negative-duration** (error) — ``end < at``; a virtual-time
  interval can never run backwards, so the producing instrumentation
  is buggy.

``lint_spans`` checks hygiene only; schema shape is
:func:`repro.obs.trace.validate_lines`'s job, and lines that do not
parse as span records are skipped here.
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
    """MVE901/902/903 span hygiene over ``repro-run/1`` JSONL lines.

    ``lines`` is the whole file including the header line; lines that
    are not span records are skipped (run
    :func:`repro.obs.trace.validate_lines` for shape problems).
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
    earlier = set()
    findings: List[Finding] = []

    def broken(where: str, message: str) -> None:
        findings.append(Finding(
            code="MVE902", severity=Severity.ERROR, analyzer=ANALYZER,
            app=app, location=where,
            message=f"{message}; the causal chain to its request is broken"))

    for position, (index, payload) in enumerate(spans, start=1):
        span_id = payload["span"]
        kind = payload.get("kind", "?")
        where = f"{source}:{index}"
        if payload.get("end", None) is None:
            findings.append(Finding(
                code="MVE901", severity=Severity.WARNING,
                analyzer=ANALYZER, app=app, location=where,
                message=(f"span {span_id} ({kind}) was never closed; an "
                         f"open span contributes zero overlap to "
                         f"critical-path attribution, under-blaming "
                         f"whatever it measured"),
            ))
        if span_id != position:
            broken(where, f"span {span_id} ({kind}) is span record "
                          f"{position} of this file, but ids run 1..n in "
                          f"file order: parent links are followed by "
                          f"position")
        parent = payload.get("parent")
        if parent is not None and parent not in earlier:
            broken(where, f"span {span_id} ({kind}) references parent "
                          f"{parent}, which no earlier span in this file "
                          f"has")
        earlier.add(span_id)
        end, start = payload.get("end"), payload.get("at")
        if isinstance(end, int) and isinstance(start, int) and end < start:
            findings.append(Finding(
                code="MVE903", severity=Severity.ERROR,
                analyzer=ANALYZER, app=app, location=where,
                message=(f"span {span_id} ({kind}) ends at {end} "
                         f"before it starts at {start}; virtual "
                         f"time cannot run backwards, so the producing "
                         f"instrumentation is buggy"),
            ))
    return findings


def lint_span_file(path: str) -> List[Finding]:
    """Run :func:`lint_spans` over a JSONL run log on disk."""
    return lint_spans(read_lines(path), source=path)
