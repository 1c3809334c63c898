"""Table 1 — Mvedsua rewrite rules per Vsftpd update pair.

For every consecutive Vsftpd pair this driver (a) counts the registered
rules, (b) *validates* them by running the update semantically under
Mvedsua and driving every delta-relevant behaviour — the pair must stay
divergence-free with its rules and, when it needs any, must diverge
without them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps import app, deploy
from repro.bench import claims
from repro.bench.reporting import format_table
from repro.core import Stage
from repro.mve.dsl import RuleSet
from repro.servers.vsftpd import TABLE1_RULE_COUNTS
from repro.sim.engine import SECOND
from repro.workloads.ftpclient import FtpClient


@dataclass
class Table1Row:
    """One update pair's result."""

    old: str
    new: str
    rules: int
    paper_rules: int
    in_sync_with_rules: bool
    diverges_without_rules: bool

    @property
    def ok(self) -> bool:
        needs_divergence = self.rules > 0
        return (self.rules == self.paper_rules
                and self.in_sync_with_rules
                and self.diverges_without_rules == needs_divergence)


def _run_pair(old: str, new: str, rules: RuleSet) -> bool:
    """Update old->new under Mvedsua, driving all delta behaviours.

    Returns True when the pair stayed in sync (no rollback).
    """
    stack = deploy("vsftpd", old)
    kernel, mvedsua = stack.kernel, stack.runtime
    kernel.fs.write_file("/f.txt", b"table-one-payload")
    client = FtpClient(kernel, stack.server.address)
    client.login(mvedsua)
    stack.update(new, SECOND, rules=rules)
    now = 2 * SECOND
    client.command(mvedsua, b"SYST", now=now)
    client.command(mvedsua, b"FEAT", now=now)
    client.retr(mvedsua, "f.txt", now=now)
    for probe in (b"STOU", b"EPSV x", b"MDTM f.txt", b"BOGUS"):
        client.command(mvedsua, probe, now=now)
    fresh = FtpClient(kernel, stack.server.address, "fresh")
    fresh.connect_greeting(mvedsua, now=now)
    fresh.command(mvedsua, b"PWD", now=now)
    fresh.command(mvedsua, b"QUIT", now=now)
    return (mvedsua.stage is Stage.OUTDATED_LEADER
            and mvedsua.runtime.last_divergence is None)


def run_table1() -> List[Table1Row]:
    """Measure and validate every pair."""
    rows = []
    for old, new, paper_count in TABLE1_RULE_COUNTS:
        rules = app("vsftpd").rules_for(old, new)
        rows.append(Table1Row(
            old=old, new=new,
            rules=rules.count(),
            paper_rules=paper_count,
            in_sync_with_rules=_run_pair(old, new, rules),
            diverges_without_rules=not _run_pair(old, new, RuleSet()),
        ))
    return rows


def render(rows: List[Table1Row]) -> str:
    """Paper-style Table 1, plus validation columns."""
    average = sum(row.rules for row in rows) / len(rows)
    table = format_table(
        ["Versions", "# rules", "paper", "in-sync w/ rules",
         "diverges w/o rules", "status"],
        [[f"{row.old} -> {row.new}", row.rules, row.paper_rules,
          "yes" if row.in_sync_with_rules else "NO",
          "yes" if row.diverges_without_rules else
          ("n/a" if row.rules == 0 else "NO"),
          "ok" if row.ok else "MISMATCH"]
         for row in rows])
    return (f"{table}\nAverage rules/update: {average:.2f} "
            f"(paper: {claims.PAPER['table1.average']})")


def other_apps_rule_counts() -> List[tuple]:
    """Rule counts for the non-Vsftpd updates (paper §1.2: none for
    Memcached, one for Redis)."""
    from repro.servers.memcached.rules import RULE_COUNTS as MC_COUNTS
    from repro.servers.redis.rules import RULE_COUNTS as REDIS_COUNTS
    rows = []
    for name, counts in (("redis", REDIS_COUNTS), ("memcached", MC_COUNTS)):
        for old, new, expected in counts:
            if (name, new) == ("memcached", "1.2.5"):
                continue  # extension pair, not part of the paper's set
            rows.append((name, f"{old} -> {new}",
                         app(name).rules_for(old, new).count(), expected))
    return rows


def main() -> None:
    print("Table 1: Mvedsua rewrite rules per Vsftpd update pair")
    print(render(run_table1()))
    print()
    print("Other applications (paper §1.2: 'No DSL rules were needed "
          "for either Memcached update, one was needed for Redis'):")
    print(format_table(
        ["app", "versions", "# rules", "expected"],
        [list(row) for row in other_apps_rule_counts()]))
