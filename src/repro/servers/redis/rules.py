"""Rewrite rules for the Redis updates.

Only 2.0.0 -> 2.0.1 needs a rule (paper §5.2): the new version appends to
the AOF *before* replying to the client, where the old version replied
first.  The rule swaps the two adjacent writes; its mirror handles the
updated-leader stage.  2.0.1 -> 2.0.2 and 2.0.2 -> 2.0.3 need none.
"""

from __future__ import annotations

from typing import Tuple

from repro.mve.dsl import RuleSet, rule_set

#: fd -3 is the AOF (``SyscallGateway.fs_append``); a client reply is any
#: write that does not carry the AOF sentinel ``AOF_PREFIX``.
REDIS_200_201_RULES_TEXT = r'''
# Outdated leader (2.0.0 records reply-then-AOF; 2.0.1 issues AOF-first).
rule aof_order outdated-leader:
    write(c, a), write(-3, b) where matches(a, "(?!AOF )") and startswith(b, "AOF ")
        => write(-3, b), write(c, a)

# Updated leader (2.0.1 records AOF-first; 2.0.0 issues reply-first).
rule aof_order_rev updated-leader:
    write(-3, a), write(c, b) where startswith(a, "AOF ") and matches(b, "(?!AOF )")
        => write(c, b), write(-3, a)
'''


def redis_rules(old: str, new: str) -> RuleSet:
    """The rule set for updating ``old`` -> ``new``."""
    if (old, new) == ("2.0.0", "2.0.1"):
        return rule_set(REDIS_200_201_RULES_TEXT)
    return rule_set("")


#: Rule counts per update pair, for reporting alongside Vsftpd's Table 1.
RULE_COUNTS: Tuple[Tuple[str, str, int], ...] = (
    ("2.0.0", "2.0.1", 1),
    ("2.0.1", "2.0.2", 0),
    ("2.0.2", "2.0.3", 0),
)
