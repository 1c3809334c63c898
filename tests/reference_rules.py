"""The Python-built rule sets that the shipped DSL text replaced, kept
as test oracles.

Before every shipped rule was DSL text, six rule builders (below) built
the Redis, Vsftpd and Memcached rules, and kvstore kept a built twin of
its DSL rules.  ``tests/test_dsl_equivalence.py`` holds each shipped
rule set of ``repro.apps.default_catalog()`` to :data:`REFERENCES`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.mve.dsl import Direction, RewriteRule, RuleSet, SyscallPattern
from repro.servers.vsftpd.features import VSFTPD_FEATURES, VsftpdFeatures
from repro.syscalls.model import Sys, SyscallRecord

# ---------------------------------------------------------------------------
# The builders
# ---------------------------------------------------------------------------


def redirect_read(name: str, trigger: Callable[[bytes], bool],
                  replacement: bytes,
                  direction: Direction = Direction.OUTDATED_LEADER
                  ) -> RewriteRule:
    """Serve the follower different input for a matching read."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        return [matched[0].with_data(replacement)]

    return RewriteRule(name, [SyscallPattern(Sys.READ, predicate=trigger)],
                       action, direction)


def rewrite_read(name: str, trigger: Callable[[bytes], bool],
                 rewriter: Callable[[bytes], bytes],
                 direction: Direction = Direction.OUTDATED_LEADER
                 ) -> RewriteRule:
    """Transform the payload the follower reads."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        return [matched[0].with_data(rewriter(matched[0].data))]

    return RewriteRule(name, [SyscallPattern(Sys.READ, predicate=trigger)],
                       action, direction)


def rewrite_write(name: str, trigger: Callable[[bytes], bool],
                  rewriter: Callable[[bytes], bytes],
                  direction: Direction = Direction.OUTDATED_LEADER
                  ) -> RewriteRule:
    """Expect the follower to write different bytes than the leader did."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        return [matched[0].with_data(rewriter(matched[0].data))]

    return RewriteRule(name, [SyscallPattern(Sys.WRITE, predicate=trigger)],
                       action, direction)


def suppress_reply(name: str, trigger: Callable[[bytes], bool],
                   direction: Direction = Direction.OUTDATED_LEADER,
                   trace_tag: Optional[str] = None) -> RewriteRule:
    """The follower issues *no* reply where the leader wrote one."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        return [matched[0]]  # keep the read, drop the reply write

    return RewriteRule(
        name,
        [SyscallPattern(Sys.READ, predicate=trigger),
         SyscallPattern(Sys.WRITE)],
        action, direction, trace_tag=trace_tag, suppresses=True)


def tolerate_extra_reply(name: str, trigger: Callable[[bytes], bool],
                         direction: Direction = Direction.UPDATED_LEADER,
                         trace_tag: Optional[str] = None) -> RewriteRule:
    """The follower writes a reply the leader suppressed: a wildcard
    write accepts any follower reply."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        wildcard = SyscallRecord(Sys.WRITE, fd=matched[0].fd,
                                 aux={"wildcard": True})
        return [matched[0], wildcard]

    return RewriteRule(name, [SyscallPattern(Sys.READ, predicate=trigger)],
                       action, direction, trace_tag=trace_tag,
                       suppresses=True)


def swap_adjacent(name: str, first: SyscallPattern, second: SyscallPattern,
                  direction: Direction = Direction.OUTDATED_LEADER
                  ) -> RewriteRule:
    """The follower issues two adjacent syscalls in the opposite order."""
    def action(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        return [matched[1], matched[0]]

    return RewriteRule(name, [first, second], action, direction)


# ---------------------------------------------------------------------------
# The rule sets
# ---------------------------------------------------------------------------


def kv_reference(old: str, new: str) -> RuleSet:
    rules = RuleSet()
    if (old, new) == ("1.0", "2.0"):
        rules.add(redirect_read(
            "put_typed", lambda d: d.startswith(b"PUT-"), b"bad-cmd\r\n",
            direction=Direction.OUTDATED_LEADER))
        rules.add(redirect_read(
            "type_cmd", lambda d: d.startswith(b"TYPE "), b"bad-cmd\r\n",
            direction=Direction.OUTDATED_LEADER))
        rules.add(rewrite_read(
            "put_string", lambda d: d.startswith(b"PUT-string "),
            lambda d: d.replace(b"PUT-string ", b"PUT ", 1),
            direction=Direction.UPDATED_LEADER))
    return rules


def _is_aof(data: bytes) -> bool:
    return data.startswith(b"AOF ")


def _is_reply(data: bytes) -> bool:
    return not data.startswith(b"AOF ")


def redis_reference(old: str, new: str) -> RuleSet:
    rules = RuleSet()
    if (old, new) == ("2.0.0", "2.0.1"):
        rules.add(swap_adjacent(
            "aof_order",
            SyscallPattern(Sys.WRITE, predicate=_is_reply),
            SyscallPattern(Sys.WRITE, fd=-3, predicate=_is_aof),
            direction=Direction.OUTDATED_LEADER))
        rules.add(swap_adjacent(
            "aof_order_rev",
            SyscallPattern(Sys.WRITE, fd=-3, predicate=_is_aof),
            SyscallPattern(Sys.WRITE, predicate=_is_reply),
            direction=Direction.UPDATED_LEADER))
    return rules


UNKNOWN = b"500 Unknown command.\r\n"


def _eq(text: bytes):
    return lambda data, t=text: data == t


def _starts(prefix: bytes):
    return lambda data, p=prefix: data.startswith(p)


def _const(text: bytes):
    return lambda data, t=text: t


def _text_change_rules(label: str, old_text: bytes,
                       new_text: bytes) -> List[RewriteRule]:
    return [
        rewrite_write(f"{label}_fwd", _eq(old_text), _const(new_text),
                      direction=Direction.OUTDATED_LEADER),
        rewrite_write(f"{label}_rev", _eq(new_text), _const(old_text),
                      direction=Direction.UPDATED_LEADER),
    ]


def _added_command_rules(verb: str) -> List[RewriteRule]:
    prefix = verb.encode()
    forward = redirect_read(f"{verb.lower()}_redirect", _starts(prefix),
                            b"FOOBAR\r\n",
                            direction=Direction.OUTDATED_LEADER)
    footprints = {
        "STOU": [SyscallPattern(Sys.READ, predicate=_starts(prefix)),
                 SyscallPattern(Sys.OPEN),
                 SyscallPattern(Sys.WRITE, fd=-2),
                 SyscallPattern(Sys.WRITE, predicate=_starts(b"257"))],
        "EPSV": [SyscallPattern(Sys.READ, predicate=_starts(prefix)),
                 SyscallPattern(Sys.LISTEN),
                 SyscallPattern(Sys.WRITE, predicate=_starts(b"229"))],
        "MDTM": [SyscallPattern(Sys.READ, predicate=_starts(prefix)),
                 SyscallPattern(Sys.STAT),
                 SyscallPattern(Sys.WRITE)],
    }

    def tolerate(matched: List[SyscallRecord]) -> List[SyscallRecord]:
        read = matched[0]
        reply_fd = matched[-1].fd if matched[-1].name is Sys.WRITE \
            else read.fd
        return [read,
                SyscallRecord(Sys.WRITE, fd=reply_fd, data=UNKNOWN,
                              result=len(UNKNOWN))]

    reverse = RewriteRule(f"{verb.lower()}_tolerate", footprints[verb],
                          tolerate, direction=Direction.UPDATED_LEADER)
    return [forward, reverse]


def _retr_order_rules() -> List[RewriteRule]:
    write_150 = SyscallPattern(Sys.WRITE, predicate=_starts(b"150 Opening"))
    open_file = SyscallPattern(Sys.OPEN)
    read_file = SyscallPattern(Sys.READ, fd=-2)

    def to_open_first(matched):
        return [matched[1], matched[2], matched[0]]

    def to_reply_first(matched):
        return [matched[2], matched[0], matched[1]]

    return [
        RewriteRule("retr_order_fwd", [write_150, open_file, read_file],
                    to_open_first, direction=Direction.OUTDATED_LEADER),
        RewriteRule("retr_order_rev", [open_file, read_file, write_150],
                    to_reply_first, direction=Direction.UPDATED_LEADER),
    ]


def rules_from_features(old: VsftpdFeatures,
                        new: VsftpdFeatures) -> RuleSet:
    rules = RuleSet()
    for label, old_text, new_text in (
        ("banner", old.banner, new.banner),
        ("syst", old.syst, new.syst),
        ("login_prompt", old.login_prompt, new.login_prompt),
        ("goodbye", old.goodbye, new.goodbye),
    ):
        if old_text != new_text:
            for rule in _text_change_rules(
                    label, old_text.encode() + b"\r\n",
                    new_text.encode() + b"\r\n"):
                rules.add(rule)
    if old.feat_text() != new.feat_text():
        for rule in _text_change_rules("feat", old.feat_text(),
                                       new.feat_text()):
            rules.add(rule)
    for verb, had, has in (("STOU", old.has_stou, new.has_stou),
                           ("EPSV", old.has_epsv, new.has_epsv),
                           ("MDTM", old.has_mdtm, new.has_mdtm)):
        if has and not had:
            for rule in _added_command_rules(verb):
                rules.add(rule)
    if new.open_before_150 and not old.open_before_150:
        for rule in _retr_order_rules():
            rules.add(rule)
    return rules


def vsftpd_reference(old: str, new: str) -> RuleSet:
    return rules_from_features(VSFTPD_FEATURES[old], VSFTPD_FEATURES[new])


def _has_noreply(data: bytes) -> bool:
    first_line = data.split(b"\r\n", 1)[0]
    return first_line.endswith(b" noreply")


def memcached_reference(old: str, new: str) -> RuleSet:
    rules = RuleSet()
    if (old, new) == ("1.2.4", "1.2.5"):
        rules.add(suppress_reply("noreply_suppress", _has_noreply,
                                 trace_tag="memcached-noreply"))
        rules.add(tolerate_extra_reply("noreply_tolerate", _has_noreply,
                                       trace_tag="memcached-noreply"))
    return rules


#: App name -> the reference ``rules_for(old, new)``.
REFERENCES: Dict[str, Callable[[str, str], RuleSet]] = {
    "kvstore": kv_reference,
    "redis": redis_reference,
    "vsftpd": vsftpd_reference,
    "memcached": memcached_reference,
    "snort": lambda old, new: RuleSet(),
}
