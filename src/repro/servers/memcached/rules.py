"""Rewrite rules for the Memcached updates.

"No version changed the sequence of system calls or added any commands,
so we did not write any DSL rules." — paper §5.3: the paper's pairs
(1.2.2 -> 1.2.3 -> 1.2.4) need nothing.

As an extension, this reproduction also carries 1.2.5 — the next real
release, which added the ``noreply`` protocol flag.  That update *does*
change the syscall sequence (a flagged storage command elicits no reply
write), so it needs exactly one rule per direction:

* outdated leader (1.2.4): the leader replies to a ``noreply`` command,
  the updated follower stays silent — drop the reply from the expected
  stream;
* updated leader (1.2.5): the leader stays silent, the old follower
  replies anyway — tolerate one extra write of any content.
"""

from __future__ import annotations

from typing import Tuple

from repro.mve.dsl import RuleSet, parse_rules

#: The guard reads "the request's first line (up to the first CRLF, or
#: the whole payload) ends in `` noreply``".
MEMCACHED_124_125_RULES_TEXT = r'''
rule noreply_suppress outdated-leader tag memcached-noreply:
    read(fd, s), write(fd, _) where matches(s, "(?s)(?:(?!\r\n).)* noreply(?:\r\n|\\Z)")
        => read(fd, s)
rule noreply_tolerate updated-leader tag memcached-noreply:
    read(fd, s) where matches(s, "(?s)(?:(?!\r\n).)* noreply(?:\r\n|\\Z)")
        => read(fd, s), write(fd, *)
'''


def memcached_rules(old: str, new: str) -> RuleSet:
    """The rule set for updating ``old`` -> ``new``."""
    if (old, new) == ("1.2.4", "1.2.5"):
        return RuleSet(parse_rules(MEMCACHED_124_125_RULES_TEXT))
    return RuleSet()


#: Rule counts per update pair, for reporting.  The paper's pairs need
#: none; the 1.2.5 extension pair needs one.
RULE_COUNTS: Tuple[Tuple[str, str, int], ...] = (
    ("1.2.2", "1.2.3", 0),
    ("1.2.3", "1.2.4", 0),
    ("1.2.4", "1.2.5", 1),
)
