#!/usr/bin/env python3
"""Doc lint: keep the operator docs honest.

Five checks, run over ``README.md`` and every ``docs/*.md`` (the
third also over the other places commands are quoted: the CI workflow,
``EXPERIMENTS.md``, ``DESIGN.md``, the verify skill and the
``repro/cli.py`` docstring):

1. **Reachability** — every guide under ``docs/`` is mentioned (by
   basename) in ``README.md`` or ``docs/architecture.md``, so no page
   can silently fall out of the table of contents.
2. **Link integrity** — every intra-repo markdown link
   (``[text](target)``) resolves to a real file, relative to the page
   that carries it.  External (``http``/``mailto``) and pure-anchor
   links are skipped; anchors on file links are stripped.
3. **CLI honesty** — every ``python -m repro …`` command quoted in the
   docs parses against the real CLI:

   * module form (``python -m repro.bench.distring``) must name an
     importable module file under ``src/``;
   * subcommand form (``python -m repro chaos kvstore --workers auto``)
     must name a command in ``repro.cli.COMMANDS`` and is checked
     against that command's ``--help`` — every ``--flag`` must appear
     in the help text, and the first positional operand must be one of
     the help's ``{a,b,c}`` choice groups.

   ALL-CAPS operands (``PATH``, ``STREAM``) are treated as
   placeholders, and commands containing ``…`` or ``<`` are skipped as
   deliberately elided.  Help is rendered in-process, once per
   command, by the real parser (``src`` is put on ``sys.path``).
4. **Site vocabulary** — the three tables that spell out the
   instrumented sites (``docs/chaos.md``'s site | kinds | hook
   location, ``docs/observability.md``'s event taxonomy and span
   kinds) list exactly what ``repro.sites.TABLE`` declares, in both
   directions: every fault site with its kinds and the file holding
   its hook, every event and span kind with its layer.
5. **Claim ids** — the ids ``docs/calibration.md`` cites (backticked,
   next to the constant fitted to them) are exactly the rows of the
   claims ledger (``repro.bench.claims.LEDGER``) whose ``kind`` is
   ``calibrated``, in both directions; and every id prefix in the last
   column of ``DESIGN.md`` §3's index (backticked, before the ``·``)
   has at least one ledger row.

Exit status is the number of problems (0 = clean).  CI runs this as
the ``docs-lint`` job; locally::

    python tools/check_docs.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(REPO, "docs")
README = os.path.join(REPO, "README.md")

#: Where commands are quoted outside README.md and docs/ (CLI honesty
#: only; a missing file is skipped).
ALSO_QUOTING_COMMANDS = (
    os.path.join(".github", "workflows", "ci.yml"),
    "EXPERIMENTS.md",
    "DESIGN.md",
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
    os.path.join("src", "repro", "cli.py"),
)

#: ``[text](target)`` — target captured lazily so nested parens in the
#: text part cannot swallow the link.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: One quoted CLI invocation: ``python -m repro`` plus everything up to
#: the end of the line or the closing backtick of an inline code span.
COMMAND_RE = re.compile(r"python -m (repro[\w.]*)([^`\n]*)")

#: ``{a,b,c}`` choice groups in argparse help.
CHOICES_RE = re.compile(r"\{([\w.,-]+)\}")


def _doc_files() -> List[str]:
    names = sorted(n for n in os.listdir(DOCS) if n.endswith(".md"))
    return [os.path.join(DOCS, n) for n in names]


def check_reachability(problems: List[str]) -> None:
    """Every docs/*.md basename appears in README.md or architecture.md."""
    with open(README, encoding="utf-8") as handle:
        index = handle.read()
    arch = os.path.join(DOCS, "architecture.md")
    if os.path.exists(arch):
        with open(arch, encoding="utf-8") as handle:
            index += handle.read()
    for path in _doc_files():
        name = os.path.basename(path)
        if name == "architecture.md":
            continue
        if name not in index:
            problems.append(f"docs/{name}: not mentioned in README.md "
                            f"or docs/architecture.md")


def check_links(path: str, text: str, problems: List[str]) -> None:
    """Every relative markdown link resolves from the page's directory."""
    base = os.path.dirname(path)
    rel = os.path.relpath(path, REPO)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            problems.append(f"{rel}: broken link -> {target}")


class CliChecker:
    """Validates quoted ``python -m repro …`` commands against the CLI."""

    def __init__(self) -> None:
        src = os.path.join(REPO, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from repro.cli import COMMANDS, main
        self._main = main
        self._subcommands = sorted(COMMANDS)
        self._help: Dict[Optional[str], Optional[str]] = {}

    def help_for(self, sub: Optional[str]) -> Optional[str]:
        """Cached ``python -m repro <sub> --help`` text; ``sub=None`` is
        the top-level help, an unknown ``sub`` has none."""
        if sub not in self._help:
            if sub is not None and sub not in self._subcommands:
                self._help[sub] = None
            else:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), \
                        contextlib.suppress(SystemExit):
                    self._main(([sub] if sub else []) + ["--help"])
                self._help[sub] = buffer.getvalue()
        return self._help[sub]

    def check_module(self, module: str, where: str,
                     problems: List[str]) -> None:
        """``python -m repro.x.y`` must name a real module under src/."""
        parts = module.split(".")
        as_file = os.path.join(REPO, "src", *parts) + ".py"
        as_pkg = os.path.join(REPO, "src", *parts, "__init__.py")
        if not (os.path.exists(as_file) or os.path.exists(as_pkg)):
            problems.append(f"{where}: no such module under src/ "
                            f"-> python -m {module}")

    def check_command(self, module: str, rest: str, where: str,
                      problems: List[str]) -> None:
        if module != "repro":
            self.check_module(module, where, problems)
            return
        if "…" in rest or "<" in rest:
            return  # deliberately elided in the prose
        # Strip shell trimmings: comments, redirections, pipes, quotes.
        rest = re.split(r"[#|>]", rest, 1)[0]
        tokens = [t.strip("'\"`,.;:()") for t in rest.split()]
        tokens = [t for t in tokens if t]
        if not tokens:
            return  # bare "python -m repro" in prose
        # ``python -m repro --help``: flags before any subcommand are
        # the top-level parser's.
        sub = None if tokens[0].startswith("-") else tokens[0]
        help_text = self.help_for(sub)
        if help_text is None:
            problems.append(f"{where}: unknown subcommand -> "
                            f"python -m repro {sub}")
            return
        shown = f"python -m repro {sub}" if sub else "python -m repro"
        for flag in (t for t in tokens[sub is not None:]
                     if t.startswith("--")):
            name = flag.split("=", 1)[0]
            if name not in help_text:
                problems.append(f"{where}: {shown} has no flag {name}")
        # First positional operand straight after the subcommand; flag
        # values never sit there, so this cannot misfire on them.
        if len(tokens) > 1 and not tokens[1].startswith("-"):
            operand = tokens[1]
            if not operand.isupper():  # ALL-CAPS = placeholder
                choices = set()
                for group in CHOICES_RE.findall(help_text):
                    choices.update(group.split(","))
                if choices and operand not in choices:
                    problems.append(
                        f"{where}: python -m repro {sub} does not accept "
                        f"operand {operand!r}")


def check_commands(path: str, text: str, checker: CliChecker,
                   problems: List[str]) -> None:
    rel = os.path.relpath(path, REPO)
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in COMMAND_RE.finditer(line):
            checker.check_command(match.group(1), match.group(2),
                                  f"{rel}:{lineno}", problems)


#: Check 4: (page, header row of the table, ``repro.sites`` column).
SITE_TABLES = (
    ("chaos.md", "| site | kinds | hook location |", "faults"),
    ("observability.md", "| kind | layer | fields | emitted when |",
     "events"),
    ("observability.md", "| kind | layer | interval |", "spans"),
)

#: `` `name` `` in a table cell.
NAME_RE = re.compile(r"`([^`]+)`")


def check_site_table(rel: str, text: str, header: str, column: str,
                     problems: List[str]) -> None:
    """The table under ``header`` lists what ``repro.sites.TABLE``
    declares in ``column``: names in the first cell (both directions),
    then fault kinds and the hook's file, or the layer."""
    from repro.sites import TABLE, kinds
    declared = ({site.name: site for site in TABLE if site.faults}
                if column == "faults" else kinds(column))
    lines = text.splitlines()
    if header not in lines:
        problems.append(f"{rel}: no table headed {header!r}")
        return
    documented = set()
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for name in NAME_RE.findall(cells[0]):
            documented.add(name)
            site = declared.get(name)
            if site is None:
                problems.append(f"{rel}: `{name}` is in the {column} "
                                f"table but not in repro.sites.TABLE")
            elif column != "faults":
                if cells[1] != site.layer:
                    problems.append(f"{rel}: `{name}` has layer "
                                    f"{site.layer}, not {cells[1]}")
            else:
                if tuple(NAME_RE.findall(cells[1])) != site.faults:
                    problems.append(f"{rel}: `{name}` takes "
                                    f"{', '.join(site.faults)}")
                if NAME_RE.findall(cells[2])[:1] != \
                        [site.where.partition(":")[0]]:
                    problems.append(f"{rel}: `{name}` is hooked in "
                                    f"{site.where}")
    for name in declared:
        if name not in documented:
            problems.append(f"{rel}: `{name}` ({column}) is in "
                            f"repro.sites.TABLE but not in the table")


#: Anything backticked without a space in it.
TOKEN_RE = re.compile(r"`([^`\s]+)`")


def check_claim_ids(calibration: str, design: str,
                    problems: List[str]) -> None:
    """``calibration`` cites exactly the ledger's calibrated ids;
    ``design``'s §3 index names only prefixes that have rows."""
    from repro.bench.claims import CALIBRATED, LEDGER
    ids = {claim.id: claim.kind for claim in LEDGER}
    families = {claim_id.partition(".")[0] for claim_id in ids}

    def claim_ids(text: str) -> List[str]:
        """The backticked tokens shaped like a claim id or id prefix:
        ``family.rest`` with the family one the ledger uses."""
        return [token for token in TOKEN_RE.findall(text)
                if "." in token and token.partition(".")[0] in families]
    cited = set(claim_ids(calibration))
    for claim_id in sorted(cited):
        if ids.get(claim_id) != CALIBRATED:
            problems.append(
                f"docs/calibration.md: cites `{claim_id}`, which is "
                + ("an emergent claim" if claim_id in ids
                   else "not in the claims ledger"))
    for claim_id, kind in ids.items():
        if kind == CALIBRATED and claim_id not in cited:
            problems.append(f"docs/calibration.md: calibrated claim "
                            f"`{claim_id}` is not cited")
    index = design.partition("\n## 3.")[2].partition("\n## 4.")[0]
    for line in index.splitlines():
        if not re.match(r"\| [A-Z]\d \|", line):
            continue
        prefixes = claim_ids(line.split("|")[-2].partition("·")[0])
        if not prefixes:
            problems.append(f"DESIGN.md §3 {line[2:4]}: names no ledger id")
        for prefix in prefixes:
            if not any(claim_id.startswith(prefix) for claim_id in ids):
                problems.append(f"DESIGN.md §3 {line[2:4]}: no claim id "
                                f"starts with `{prefix}`")


def main() -> int:
    problems: List[str] = []
    check_reachability(problems)
    checker = CliChecker()
    pages: List[Tuple[str, str]] = []
    for path in [README] + _doc_files():
        with open(path, encoding="utf-8") as handle:
            pages.append((path, handle.read()))
    for path, text in pages:
        check_links(path, text, problems)
        check_commands(path, text, checker, problems)
        for page, header, column in SITE_TABLES:
            if os.path.basename(path) == page:
                check_site_table(os.path.relpath(path, REPO), text, header,
                                 column, problems)
    for relative in ALSO_QUOTING_COMMANDS:
        path = os.path.join(REPO, relative)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            if path.endswith(".py"):  # the module docstring only
                text = text.split('"""', 2)[1]
            check_commands(path, text, checker, problems)
            pages.append((path, text))
    by_name = {os.path.relpath(path, REPO): text for path, text in pages}
    check_claim_ids(by_name[os.path.join("docs", "calibration.md")],
                    by_name["DESIGN.md"], problems)
    for problem in problems:
        print(problem)
    count = len(problems)
    print(f"docs lint: {count} problem(s) across {len(pages)} page(s)")
    return min(count, 99)


if __name__ == "__main__":
    sys.exit(main())
