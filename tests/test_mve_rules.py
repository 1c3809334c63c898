"""Unit tests for the rewrite-rule engine and the rule shapes the DSL
writes."""

import pytest

from repro.errors import RuleError
from repro.mve.dsl import (
    Direction,
    RewriteRule,
    RuleEngine,
    RuleSet,
    SyscallPattern,
    parse_rules,
)
from repro.syscalls.model import Sys, read_record, write_record


def rule(text):
    """The one rule ``text`` defines."""
    (only,) = parse_rules(text)
    return only


#: Two writes merged into one.
MERGE_AB = r'''rule merge:
    write(fd, a), write(fd2, b) where startswith(a, "A") and startswith(b, "B")
        => write(fd, a + b)'''


def run_engine(rules, records):
    """Feed all records through an engine and collect the output."""
    engine = RuleEngine(rules)
    out = []
    for record in records:
        engine.offer(record)
        while engine.has_ready():
            out.append(engine.next_expected())
    engine.flush()
    while engine.has_ready():
        out.append(engine.next_expected())
    return engine, out


class TestPatterns:
    def test_name_and_fd_matching(self):
        pattern = SyscallPattern(Sys.READ, fd=7)
        assert pattern.matches(read_record(7, b"x"))
        assert not pattern.matches(read_record(8, b"x"))
        assert not pattern.matches(write_record(7, b"x"))

    def test_predicate(self):
        pattern = SyscallPattern(Sys.READ,
                                 predicate=lambda d: d.startswith(b"PUT"))
        assert pattern.matches(read_record(1, b"PUT k v"))
        assert not pattern.matches(read_record(1, b"GET k"))

    def test_empty_pattern_rejected(self):
        with pytest.raises(RuleError):
            RewriteRule("empty", [], lambda m: m)


class TestPassThrough:
    def test_no_rules_is_identity(self):
        records = [read_record(1, b"GET k"), write_record(1, b"+OK")]
        _, out = run_engine([], records)
        assert [r.data for r in out] == [b"GET k", b"+OK"]

    def test_non_matching_rule_is_identity(self):
        never = rule(r'rule r: read(fd, s) where startswith(s, "NOPE") '
                     r'=> read(fd, "bad")')
        _, out = run_engine([never], [read_record(1, b"GET k")])
        assert out[0].data == b"GET k"


class TestSingleRecordRules:
    def test_redirect_read(self):
        # Figure 4 Rule 1: typed PUT becomes an invalid command.
        put_typed = rule(r'''rule put_typed:
            read(fd, s) where startswith(s, "PUT-") => read(fd, "bad-cmd\r\n")''')
        engine, out = run_engine(
            [put_typed], [read_record(4, b"PUT-number balance 1001\r\n")])
        assert out[0].data == b"bad-cmd\r\n"
        assert out[0].fd == 4
        assert engine.fired == ["put_typed"]

    def test_rewrite_read(self):
        # Figure 4 Rule 2: untyped PUT becomes PUT-string.
        put_untyped = rule(r'''rule put_untyped:
            read(fd, s) where startswith(s, "PUT ")
                => read(fd, replace_prefix(s, "PUT ", "PUT-string "))''')
        _, out = run_engine([put_untyped], [read_record(4, b"PUT k v\r\n")])
        assert out[0].data == b"PUT-string k v\r\n"

    def test_rewrite_write(self):
        banner = rule(r'''rule banner:
            write(fd, s) where startswith(s, "220 v1")
                => write(fd, replace(s, "v1", "v2"))''')
        _, out = run_engine([banner], [write_record(4, b"220 v1 ready\r\n")])
        assert out[0].data == b"220 v2 ready\r\n"

    def test_split_write(self):
        split = rule(r'''rule split:
            write(fd, s) where contains(s, "\r\n")
                => write(fd, "HELLO"), write(fd, replace_prefix(s, "HELLO", ""))''')
        _, out = run_engine([split], [write_record(4, b"HELLO WORLD\r\n")])
        assert [r.data for r in out] == [b"HELLO", b" WORLD\r\n"]
        assert all(r.name is Sys.WRITE and r.fd == 4 for r in out)


class TestMultiRecordRules:
    def test_merge_writes(self):
        merge = rule(r'''rule merge:
            write(fd, a), write(fd2, b)
                where startswith(a, "220-") and startswith(b, "220 ")
                => write(fd, a + b)''')
        _, out = run_engine([merge], [
            write_record(4, b"220-part one\r\n"),
            write_record(4, b"220 part two\r\n"),
        ])
        assert len(out) == 1
        assert out[0].data == b"220-part one\r\n220 part two\r\n"

    def test_swap_adjacent(self):
        aof = rule(r'''rule aof:
            write(f1, a), write(f2, b) where startswith(a, "+") and startswith(b, "*")
                => write(f2, b), write(f1, a)''')
        _, out = run_engine([aof], [
            write_record(4, b"+OK\r\n"),
            write_record(9, b"*3 aof entry\r\n"),
        ])
        assert [r.data for r in out] == [b"*3 aof entry\r\n", b"+OK\r\n"]
        assert [r.fd for r in out] == [9, 4]

    def test_partial_match_waits_for_more_records(self):
        engine = RuleEngine([rule(MERGE_AB)])
        engine.offer(write_record(1, b"A1"))
        # Might still complete: nothing ready yet.
        assert not engine.has_ready()
        assert engine.pending_window() == 1
        engine.offer(write_record(1, b"B2"))
        assert engine.next_expected().data == b"A1B2"

    def test_partial_match_flushes_when_stream_ends(self):
        engine = RuleEngine([rule(MERGE_AB)])
        engine.offer(write_record(1, b"A1"))
        engine.flush()
        assert engine.next_expected().data == b"A1"

    def test_failed_partial_match_reconsiders_suffix(self):
        # "A" then "A" then "B": first A flushes, then A+B merges.
        _, out = run_engine([rule(MERGE_AB)], [
            write_record(1, b"A1"), write_record(1, b"A2"),
            write_record(1, b"B3"),
        ])
        assert [r.data for r in out] == [b"A1", b"A2B3"]


class TestPriorityAndDirection:
    def test_first_matching_rule_wins(self):
        rules = parse_rules('rule a: read(fd, s) => read(fd, "from-a")\n'
                            'rule b: read(fd, s) => read(fd, "from-b")')
        engine, out = run_engine(rules, [read_record(1, b"x")])
        assert out[0].data == b"from-a"
        assert engine.fired == ["a"]

    def test_ruleset_stage_filtering(self):
        rules = RuleSet(parse_rules('''
            rule fwd outdated-leader: read(fd, s) => read(fd, "x")
            rule rev updated-leader: read(fd, s) => read(fd, "y")
            rule always both: read(fd, s) => read(fd, "z")'''))
        outdated = rules.for_stage(Direction.OUTDATED_LEADER)
        updated = rules.for_stage(Direction.UPDATED_LEADER)
        assert [r.name for r in outdated] == ["fwd", "always"]
        assert [r.name for r in updated] == ["rev", "always"]
        assert rules.count() == 2
        assert len(rules) == 3

    def test_action_returning_none_raises(self):
        bad = RewriteRule("bad", [SyscallPattern(Sys.READ)], lambda m: None)
        engine = RuleEngine([bad])
        with pytest.raises(RuleError):
            engine.offer(read_record(1, b"x"))
