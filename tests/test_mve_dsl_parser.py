"""Unit tests for the textual rule DSL parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DslSyntaxError
from repro.mve.dsl import (ANY_FD, Direction, RewriteRule, RuleEngine,
                           SyscallPattern, dispatch_key, parse_rules,
                           parse_rules_ast)
from repro.syscalls.model import Sys, SyscallRecord, read_record, write_record


def apply_one(rule_text, records):
    rules = parse_rules(rule_text)
    engine = RuleEngine(rules)
    out = []
    for record in records:
        engine.offer(record)
        while engine.has_ready():
            out.append(engine.next_expected())
    engine.flush()
    while engine.has_ready():
        out.append(engine.next_expected())
    return out


def test_figure4_rule1_redirect():
    text = r'''
    # Figure 4, Rule 1
    rule put_typed outdated-leader:
        read(fd, s) where startswith(s, "PUT-") => read(fd, "bad-cmd\r\n")
    '''
    out = apply_one(text, [read_record(4, b"PUT-number balance 1001\r\n")])
    assert out[0].data == b"bad-cmd\r\n"
    assert out[0].fd == 4
    assert out[0].name is Sys.READ


def test_figure4_rule2_replace_prefix():
    text = r'''
    rule put_untyped:
        read(fd, s) where startswith(s, "PUT ")
            => read(fd, replace_prefix(s, "PUT ", "PUT-string "))
    '''
    out = apply_one(text, [read_record(4, b"PUT k1 v1\r\n")])
    assert out[0].data == b"PUT-string k1 v1\r\n"


def test_figure5_stou_two_record_rule():
    text = r'''
    rule stou outdated-leader:
        read(fd, s), write(fd2, r) where r == "500 Unknown command.\r\n"
            => read(fd, "FOOBAR\r\n"), write(fd2, r)
    '''
    out = apply_one(text, [
        read_record(4, b"STOU\r\n"),
        write_record(4, b"500 Unknown command.\r\n"),
    ])
    assert [r.data for r in out] == [b"FOOBAR\r\n", b"500 Unknown command.\r\n"]


def test_merge_with_concatenation():
    text = r'''
    rule banner both:
        write(fd, a), write(fd2, b) where startswith(a, "220-")
            => write(fd, a + b)
    '''
    out = apply_one(text, [
        write_record(4, b"220-hello\r\n"),
        write_record(4, b"220 ready\r\n"),
    ])
    assert len(out) == 1
    assert out[0].data == b"220-hello\r\n220 ready\r\n"


def test_swap_emits_in_reverse_order():
    text = r'''
    rule aof_order:
        write(f1, a), write(f2, b) where startswith(b, "*")
            => write(f2, b), write(f1, a)
    '''
    out = apply_one(text, [
        write_record(4, b"+OK\r\n"),
        write_record(9, b"*aof\r\n"),
    ])
    assert [(r.fd, r.data) for r in out] == [(9, b"*aof\r\n"), (4, b"+OK\r\n")]


def test_replace_function():
    text = r'''
    rule reword:
        write(fd, s) where contains(s, "Goodbye")
            => write(fd, replace(s, "Goodbye", "221 Goodbye"))
    '''
    out = apply_one(text, [write_record(1, b"Goodbye.\r\n")])
    assert out[0].data == b"221 Goodbye.\r\n"


def test_directions_parsed():
    text = '''
    rule fwd outdated-leader:
        read(fd, s) where s == "x" => read(fd, "y")
    rule rev updated-leader:
        read(fd, s) where s == "y" => read(fd, "x")
    rule any both:
        read(fd, s) where s == "z" => read(fd, "z")
    '''
    rules = parse_rules(text)
    assert [r.direction for r in rules] == [
        Direction.OUTDATED_LEADER, Direction.UPDATED_LEADER, Direction.BOTH]


def test_default_direction_is_outdated_leader():
    rules = parse_rules('rule r: read(fd, s) => read(fd, "x")')
    assert rules[0].direction is Direction.OUTDATED_LEADER


def test_multiple_conditions_with_and():
    text = '''
    rule narrow:
        read(fd, s) where startswith(s, "PUT") and contains(s, "balance")
            => read(fd, "bad")
    '''
    rules = parse_rules(text)
    out = apply_one(text, [read_record(1, b"PUT balance 5")])
    assert out[0].data == b"bad"
    out = apply_one(text, [read_record(1, b"PUT other 5")])
    assert out[0].data == b"PUT other 5"
    assert len(rules) == 1


def test_not_equal_condition():
    text = '''
    rule ne:
        read(fd, s) where s != "PING" => read(fd, "nope")
    '''
    assert apply_one(text, [read_record(1, b"PING")])[0].data == b"PING"
    assert apply_one(text, [read_record(1, b"PONG")])[0].data == b"nope"


def test_comments_and_blank_lines_ignored():
    text = '''

    # leading comment
    rule r:  # trailing comment
        read(fd, s) => read(fd, s)
    '''
    assert len(parse_rules(text)) == 1


def test_a_hash_inside_a_string_literal_is_not_a_comment():
    text = 'rule r: read(fd, s) where s == "GET #1" => read(fd, "#")  # note'
    (rule,) = parse_rules(text)
    assert rule.ast.conditions[0].literal == b"GET #1"
    assert apply_one(text, [read_record(1, b"GET #1")])[0].data == b"#"


class TestShippedShapes:
    """What the shipped rules need beyond Figures 4 and 5."""

    def test_syscall_names_are_the_sys_values(self):
        for sys in Sys:
            (rule,) = parse_rules(
                f"rule r: {sys.value}(fd, s) => {sys.value}(fd, s)")
            assert rule.pattern[0].name is sys

    def test_an_integer_pins_the_fd(self):
        (rule,) = parse_rules(
            "rule r: write(-3, a), write(c, b) => write(c, b), write(-3, a)")
        assert [p.fd for p in rule.pattern] == [-3, ANY_FD]
        assert dispatch_key(rule.pattern[0]) == (Sys.WRITE, -3)
        (pinned,) = parse_rules("rule r: read(-2, d) => read(-2, d)")
        assert pinned.pattern[0].matches(read_record(-2, b"a"))
        assert not pinned.pattern[0].matches(read_record(4, b"a"))
        # A rewritten record copies a named fd's record; a pin names none.
        with pytest.raises(DslSyntaxError, match="unbound fd"):
            parse_rules('rule r: read(-2, d) => read(-2, "x")')

    def test_blank_binds_nothing(self):
        (rule,) = parse_rules("rule r: read(fd, s), open(_, _) => read(fd, s)")
        assert [p.fd for p in rule.pattern] == [ANY_FD, ANY_FD]
        assert rule.pattern[1].predicate is None
        with pytest.raises(DslSyntaxError, match="unbound payload"):
            parse_rules('rule r: read(fd, _) where _ == "x" => read(fd, "y")')
        with pytest.raises(DslSyntaxError, match="unbound fd"):
            parse_rules('rule r: read(_, s) => read(_, "x")')

    def test_a_repeated_match_position_is_emitted_unchanged(self):
        leader = [SyscallRecord(Sys.OPEN, -1, b"/f", 0),
                  SyscallRecord(Sys.READ, -2, b"data", 99, {"k": 1})]
        out = apply_one(
            "rule r: open(_, p), read(-2, d) => read(-2, d), open(_, p)",
            leader)
        assert out == leader[::-1]

    def test_any_other_emit_copies_the_record_its_fd_names(self):
        leader = SyscallRecord(Sys.WRITE, 4, b"257 ok", 6, {"error": "EPIPE"})
        (out,) = apply_one('rule r: write(fd, s) => write(fd, "500")',
                           [leader])
        assert out == SyscallRecord(Sys.WRITE, 4, b"500", 6,
                                    {"error": "EPIPE"})
        # An fd variable bound twice names its first record.
        read = SyscallRecord(Sys.READ, 4, b"STOU\r\n", 6, {"k": 1})
        reply = SyscallRecord(Sys.WRITE, 4, b"500\r\n", 5)
        out = apply_one('rule r: read(fd, s), write(fd, r) '
                        '=> read(fd, "FOOBAR"), write(fd, r)', [read, reply])
        assert out == [read._replace(data=b"FOOBAR"), reply]

    def test_a_star_payload_emits_the_wildcard_write(self):
        (rule,) = parse_rules(
            "rule r: read(fd, s) => read(fd, s), write(fd, *)")
        assert rule.suppresses
        out = apply_one("rule r: read(fd, s) => read(fd, s), write(fd, *)",
                        [read_record(4, b"set k noreply")])
        assert out[1] == SyscallRecord(Sys.WRITE, 4, aux={"wildcard": True})
        with pytest.raises(DslSyntaxError, match="write only"):
            parse_rules("rule r: read(fd, s) => read(fd, *)")

    def test_tag_sets_the_trace_tag(self):
        (tagged, plain) = parse_rules(
            "rule a both tag app-diff: read(fd, s) => read(fd, s)\n"
            "rule b: read(fd, s) => read(fd, s)")
        assert (tagged.trace_tag, tagged.direction) == ("app-diff",
                                                        Direction.BOTH)
        assert plain.trace_tag is None

    def test_suppresses_when_fewer_records_are_emitted(self):
        drop, keep = parse_rules(
            "rule drop: read(fd, s), write(fd, r) => read(fd, s)\n"
            "rule keep: read(fd, s), write(fd, r) => write(fd, r), read(fd, s)")
        assert drop.suppresses and not keep.suppresses

    def test_matches_is_an_anchored_re_match(self):
        text = 'rule r: read(fd, s) where matches(s, "GET|SET") => read(fd, "x")'
        out = apply_one(text, [read_record(1, b"GET k"),
                               read_record(1, b"x GET")])
        assert [r.data for r in out] == [b"x", b"x GET"]


class TestSyntaxErrors:
    def test_unknown_syscall(self):
        with pytest.raises(DslSyntaxError, match="unknown syscall"):
            parse_rules('rule r: ioctl(fd, s) => read(fd, s)')

    def test_unbound_variable_in_emit(self):
        with pytest.raises(DslSyntaxError, match="unbound"):
            parse_rules('rule r: read(fd, s) => read(fd, t)')

    def test_unbound_fd_variable(self):
        with pytest.raises(DslSyntaxError, match="unbound fd"):
            parse_rules('rule r: read(fd, s) => read(other, s)')

    def test_missing_arrow(self):
        with pytest.raises(DslSyntaxError):
            parse_rules('rule r: read(fd, s)')

    def test_bad_operator(self):
        with pytest.raises(DslSyntaxError, match="unknown operator"):
            parse_rules('rule r: read(fd, s) where s + "x" => read(fd, s)')

    def test_unbound_condition_variable(self):
        with pytest.raises(DslSyntaxError, match="unbound"):
            parse_rules('rule r: read(fd, s) where t == "x" => read(fd, s)')

    def test_garbage_input(self):
        with pytest.raises(DslSyntaxError):
            parse_rules('rule ???')

    def test_duplicate_rule_names(self):
        with pytest.raises(DslSyntaxError, match="duplicate rule name 'r'"):
            parse_rules('rule r: read(fd, s) => read(fd, s)\n'
                        'rule r: read(fd, s) => read(fd, s)')

    def test_where_clause_missing_literal(self):
        with pytest.raises(DslSyntaxError, match="expected string literal"):
            parse_rules('rule r: read(fd, s) where s == t => read(fd, s)')

    def test_where_predicate_missing_comma(self):
        with pytest.raises(DslSyntaxError, match="expected ','"):
            parse_rules(
                'rule r: read(fd, s) where startswith(s "x") => read(fd, s)')

    def test_unknown_syscall_in_emit(self):
        with pytest.raises(DslSyntaxError, match="unknown syscall 'ioctl'"):
            parse_rules('rule r: read(fd, s) => ioctl(fd, s)')

    def test_truncated_rule(self):
        with pytest.raises(DslSyntaxError, match="unexpected end of input"):
            parse_rules('rule r: read(fd, s) => read(fd,')

    def test_untokenizable_input(self):
        with pytest.raises(DslSyntaxError, match="cannot tokenize"):
            parse_rules('rule r: read(fd, s) => read(fd, s) @ nonsense')

    @pytest.mark.parametrize("literal", [r'"\x"', r'"\N{x}"', r'"\u20ac"'])
    def test_malformed_escape(self, literal):
        with pytest.raises(DslSyntaxError, match="bad string literal"):
            parse_rules(f"rule r: read(fd, s) where s == {literal} "
                        f"=> read(fd, s)")

    @pytest.mark.parametrize("pattern", ['"("', '"a{99999999999}"'])
    def test_bad_pattern(self, pattern):
        with pytest.raises(DslSyntaxError, match="bad pattern"):
            parse_rules(f"rule r: read(fd, s) where matches(s, {pattern}) "
                        f"=> read(fd, s)")


class TestAst:
    TEXT = r'''
    rule stou outdated-leader:
        read(fd, s), write(fd2, r) where r == "500 Unknown command.\r\n"
            => read(fd, "FOOBAR\r\n"), write(fd2, r)
    '''

    def test_structure(self):
        (ast,) = parse_rules_ast(self.TEXT)
        assert ast.name == "stou"
        assert ast.direction is Direction.OUTDATED_LEADER
        assert [(m.syscall, m.fd_var, m.data_var) for m in ast.matches] == [
            (Sys.READ, "fd", "s"), (Sys.WRITE, "fd2", "r")]
        (cond,) = ast.conditions
        assert (cond.op, cond.var) == ("eq", "r")
        assert cond.literal == b"500 Unknown command.\r\n"
        assert [e.syscall for e in ast.emits] == [Sys.READ, Sys.WRITE]
        assert ast.emits[0].expr.op == "literal"
        assert ast.emits[1].expr.op == "var"

    def test_conditions_for_and_used_variables(self):
        (ast,) = parse_rules_ast(self.TEXT)
        assert ast.conditions_for("r") == ast.conditions
        assert ast.conditions_for("s") == ()
        assert ast.used_variables() == frozenset({"r"})

    def test_compiled_rule_carries_ast(self):
        (ast,) = parse_rules_ast(self.TEXT)
        (rule,) = parse_rules(self.TEXT)
        assert rule.ast == ast

    def test_programmatic_rules_have_no_ast(self):
        rule = RewriteRule("r", [SyscallPattern(Sys.READ)], list)
        assert rule.ast is None

    def test_condition_evaluate(self):
        (ast,) = parse_rules_ast(
            'rule r: read(fd, s) where startswith(s, "PUT") '
            '=> read(fd, s)')
        (cond,) = ast.conditions
        assert cond.evaluate(b"PUT k v")
        assert not cond.evaluate(b"GET k")


#: Broken and odd string literals, and tokens and near-tokens, that
#: generated rule texts splice into valid ones.
LITERALS = ('"x"', '"("', '"a{99999999999}"', r'"\x"', r'"\N{x}"',
            r'"\u20ac"', '"#"', '"\\"', '"')
SOUP = ("rule", "r", "tag", "t-1", "both", ":", ",", "(", ")", "=>", "==",
        "!=", "+", "*", "where", "and", "read", "write", "listen", "ioctl",
        "fd", "s", "_", "-2", "startswith", "matches", "replace", "#", "\n",
        "@") + LITERALS
#: Valid rules, one token per space (no literal holds a space).
TEMPLATES = (
    'rule r : read ( fd , s ) where startswith ( s , "x" ) '
    '=> read ( fd , "y" )',
    'rule r both tag t-1 : write ( c , a ) , write ( -3 , b ) '
    'where matches ( a , "x" ) and b == "y" => write ( -3 , b ) , '
    'write ( c , a )',
    'rule r : read ( fd , s ) , open ( _ , _ ) '
    '=> read ( fd , replace_prefix ( s , "x" , "y" ) ) , write ( fd , * )',
)


@st.composite
def mangled_rules(draw):
    """A valid rule with one to three tokens replaced: a literal by a
    literal, anything else by any token."""
    tokens = draw(st.sampled_from(TEMPLATES)).split(" ")
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(tokens) - 1))
        tokens[index] = draw(st.sampled_from(
            LITERALS if tokens[index].startswith('"') else SOUP))
    return " ".join(tokens)


class TestTokenSoup:
    @settings(deadline=None)
    @given(st.lists(mangled_rules(), min_size=1, max_size=3).map("\n".join))
    def test_parse_rules_returns_rules_or_raises_a_syntax_error(self, text):
        try:
            rules = parse_rules(text)
        except DslSyntaxError:
            return
        assert all(isinstance(rule, RewriteRule) for rule in rules)
