"""Rewrite rules for the KV-store 1.0 -> 2.0 update (the paper's Figure 4).

Outdated-leader stage (old version is authoritative):

* Rule 1 — a typed ``PUT-<type>`` or a ``TYPE`` command, which the old
  leader rejects as unknown, is redirected to ``bad-cmd`` so the new
  follower rejects it identically and neither version's state changes.

Updated-leader stage (after promotion):

* Rule 3 — ``PUT-string`` maps to a plain ``PUT`` for the old follower
  (string is the default type, so the states stay related).  Other typed
  PUTs and ``TYPE`` have no old-version equivalent: the follower will
  diverge and be terminated, exactly as §3.3.2 prescribes.
"""

from __future__ import annotations

from repro.mve.dsl import RuleSet, rule_set

kv_rules_text = r'''
# Outdated-leader, Rule 1 (Figure 4a): new commands -> invalid command.
rule put_typed outdated-leader:
    read(fd, s) where startswith(s, "PUT-") => read(fd, "bad-cmd\r\n")
rule type_cmd outdated-leader:
    read(fd, s) where startswith(s, "TYPE ") => read(fd, "bad-cmd\r\n")

# Updated-leader, Rule 3 (Figure 4b): PUT-string -> PUT.
rule put_string updated-leader:
    read(fd, s) where startswith(s, "PUT-string ")
        => read(fd, replace_prefix(s, "PUT-string ", "PUT "))
'''


def kv_rules() -> RuleSet:
    """The Figure 4 rules, parsed from :data:`kv_rules_text` once."""
    return rule_set(kv_rules_text)


#: The benchmark in ``hostbench/`` imports the rules under this name,
#: from when a Python-built twin of :func:`kv_rules` existed; the name
#: stays so the frozen benchmark keeps running.
kv_rules_from_dsl = kv_rules
