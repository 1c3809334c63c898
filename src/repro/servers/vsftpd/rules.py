"""Rewrite rules for the 13 Vsftpd update pairs (paper Table 1).

Rules are *derived from the feature diff* between two releases, one rule
per client-visible behavioural change, in both directions:

* response-text changes (banner, SYST, login prompt, goodbye, FEAT) map
  the old text to the new and vice versa;
* an added command is redirected to an invalid command while the old
  version leads (the Figure 5 pattern), and tolerated in reverse after
  promotion by expecting the old follower's ``500`` rejection;
* the 2.0.5 RETR syscall-order change rotates the
  ``write(150)/open/read`` triple.
"""

from __future__ import annotations

from typing import Tuple

from repro.mve.dsl import RuleSet, rule_set
from repro.servers.vsftpd.features import VSFTPD_FEATURES, VsftpdFeatures

#: The rules for each command a release adds.  Outdated leader: redirect
#: the command to one *neither* version knows (``FOOBAR``, as in Figure
#: 5) so the new follower rejects it exactly like the old leader did.
#: Updated leader: the new leader executes the command — its read, the
#: command's record footprint, its reply ``r`` — and the old follower
#: rejects it instead, tolerable because Vsftpd keeps no state about the
#: file system (paper §5.1).
ADDED_COMMAND_RULES = {
    "STOU": r'''
rule stou_redirect outdated-leader:
    read(fd, s) where startswith(s, "STOU") => read(fd, "FOOBAR\r\n")
rule stou_tolerate updated-leader tag vsftpd-stou:
    read(fd, s), open(_, _), write(-2, _), write(r, t)
        where startswith(s, "STOU") and startswith(t, "257")
        => read(fd, s), write(r, "500 Unknown command.\r\n")
''',
    "EPSV": r'''
rule epsv_redirect outdated-leader:
    read(fd, s) where startswith(s, "EPSV") => read(fd, "FOOBAR\r\n")
rule epsv_tolerate updated-leader tag vsftpd-epsv:
    read(fd, s), listen(_, _), write(r, t)
        where startswith(s, "EPSV") and startswith(t, "229")
        => read(fd, s), write(r, "500 Unknown command.\r\n")
''',
    "MDTM": r'''
rule mdtm_redirect outdated-leader:
    read(fd, s) where startswith(s, "MDTM") => read(fd, "FOOBAR\r\n")
rule mdtm_tolerate updated-leader tag vsftpd-mdtm:
    read(fd, s), stat(_, _), write(r, _) where startswith(s, "MDTM")
        => read(fd, s), write(r, "500 Unknown command.\r\n")
''',
}

#: 2.0.4 -> 2.0.5: RETR opens the file (fd -2 is the data file) before
#: the 150 reply.
RETR_ORDER_RULES = r'''
rule retr_order_fwd outdated-leader:
    write(c, w), open(_, p), read(-2, d) where startswith(w, "150 Opening")
        => open(_, p), read(-2, d), write(c, w)
rule retr_order_rev updated-leader:
    open(_, p), read(-2, d), write(c, w) where startswith(w, "150 Opening")
        => write(c, w), open(_, p), read(-2, d)
'''


def _quote(data: bytes) -> str:
    """``data`` as a DSL string literal."""
    return '"' + "".join(
        chr(byte) if 32 <= byte < 127 and byte not in b'"\\'
        else f"\\x{byte:02x}" for byte in data) + '"'


def _text_change_rules(label: str, old_text: bytes, new_text: bytes) -> str:
    """Old leader's text maps to the new follower's, and vice versa."""
    old, new = _quote(old_text), _quote(new_text)
    return (f"rule {label}_fwd outdated-leader:\n"
            f"    write(fd, s) where s == {old} => write(fd, {new})\n"
            f"rule {label}_rev updated-leader:\n"
            f"    write(fd, s) where s == {new} => write(fd, {old})\n")


def rules_from_features(old: VsftpdFeatures, new: VsftpdFeatures) -> str:
    """The DSL text of the rules for updating ``old`` -> ``new``."""
    parts = []
    for label, old_text, new_text in (
        ("banner", old.banner, new.banner),
        ("syst", old.syst, new.syst),
        ("login_prompt", old.login_prompt, new.login_prompt),
        ("goodbye", old.goodbye, new.goodbye),
    ):
        if old_text != new_text:
            parts.append(_text_change_rules(
                label, old_text.encode() + b"\r\n",
                new_text.encode() + b"\r\n"))
    if old.feat_text() != new.feat_text():
        parts.append(_text_change_rules("feat", old.feat_text(),
                                        new.feat_text()))
    for verb, had, has in (("STOU", old.has_stou, new.has_stou),
                           ("EPSV", old.has_epsv, new.has_epsv),
                           ("MDTM", old.has_mdtm, new.has_mdtm)):
        if has and not had:
            parts.append(ADDED_COMMAND_RULES[verb])
    if new.open_before_150 and not old.open_before_150:
        parts.append(RETR_ORDER_RULES)
    return "".join(parts)


def vsftpd_rules(old: str, new: str) -> RuleSet:
    """The rule set for updating release ``old`` -> ``new``."""
    return rule_set(rules_from_features(VSFTPD_FEATURES[old],
                                        VSFTPD_FEATURES[new]))


#: The paper's Table 1: rules needed per update pair.
TABLE1_RULE_COUNTS: Tuple[Tuple[str, str, int], ...] = (
    ("1.1.0", "1.1.1", 0),
    ("1.1.1", "1.1.2", 2),
    ("1.1.2", "1.1.3", 0),
    ("1.1.3", "1.2.0", 2),
    ("1.2.0", "1.2.1", 0),
    ("1.2.1", "1.2.2", 0),
    ("1.2.2", "2.0.0", 3),
    ("2.0.0", "2.0.1", 0),
    ("2.0.1", "2.0.2", 1),
    ("2.0.2", "2.0.3", 1),
    ("2.0.3", "2.0.4", 1),
    ("2.0.4", "2.0.5", 1),
    ("2.0.5", "2.0.6", 0),
)
