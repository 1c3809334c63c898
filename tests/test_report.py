"""``repro.report``: the shape vocabulary, the one walker, and the three
properties every shipped shape owes it —

(a) totality: ``problems(value, shape)`` is a list for *any* decoded
    JSON value, so a malformed artifact is a typed refusal, never a
    traceback;
(b) soundness: everything the tier-1 golden cases of
    ``tools/cli_goldens.py`` write validates clean under its shape;
(c) sensitivity: one typed leaf of a valid artifact replaced by a value
    of another JSON type is a problem that names the leaf's path.

Run at depth with ``--hypothesis-profile ci`` (``tests/conftest.py``).
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, strategies as st

from repro.chaos.campaign import CHAOS_SHAPE
from repro.chaos.campaign import validate_report as validate_chaos
from repro.cli import main
from repro.cluster.fleet import FLEET_SHAPE
from repro.cluster.fleet import validate_report as validate_fleet
from repro.obs.slo import SLO_SHAPE, validate_slo_report
from repro.obs.spans import (SPAN_HEADER_SHAPE, SPAN_SHAPE,
                             validate_span_file, validate_span_lines)
from repro.obs.trace import (EVENT_SHAPE, SNAPSHOT_SHAPE, TRACE_HEADER_SHAPE,
                             validate_trace_file, validate_trace_lines)
from repro.perf.harness import GAUGES_SHAPE, META_SHAPE, validate_bench
from repro.replay.stream import (ENTRY_SHAPES, HEADER_SHAPE, RECORD_SHAPE,
                                 validate_stream_file)
from repro.report import (ANY, BOOL, BYTES, INT, NAT, POS, STR, TEXT, UNIT,
                          Leaf, ListOf, MapOf, Obj, Opt, Via, const,
                          jsonl_problems, one_of, problems)
from repro.workloads.openloop_scenarios import (OPENLOOP_SHAPE,
                                                validate_openloop_report)
from tests.test_cli import goldens

#: Every shape the repo ships, by the name its module gives it.
SHIPPED = {
    "CHAOS_SHAPE": CHAOS_SHAPE, "FLEET_SHAPE": FLEET_SHAPE,
    "SLO_SHAPE": SLO_SHAPE, "OPENLOOP_SHAPE": OPENLOOP_SHAPE,
    "META_SHAPE": META_SHAPE, "GAUGES_SHAPE": GAUGES_SHAPE,
    "SPAN_HEADER_SHAPE": SPAN_HEADER_SHAPE, "SPAN_SHAPE": SPAN_SHAPE,
    "TRACE_HEADER_SHAPE": TRACE_HEADER_SHAPE, "EVENT_SHAPE": EVENT_SHAPE,
    "SNAPSHOT_SHAPE": SNAPSHOT_SHAPE, "HEADER_SHAPE": HEADER_SHAPE,
    "RECORD_SHAPE": RECORD_SHAPE,
    **{f"ENTRY_SHAPES[{kind}]": shape
       for kind, shape in ENTRY_SHAPES.items()},
}

#: The validators that take one decoded report.
REPORT_VALIDATORS = [validate_chaos, validate_fleet, validate_slo_report,
                     validate_openloop_report, validate_bench]


def _named_keys(shape):
    """Every key a shape names, so generated objects get past the first
    ``missing`` and into the nested shapes."""
    if isinstance(shape, Obj):
        for named in (shape.required, shape.optional):
            for key, inner in named.items():
                yield key
                yield from _named_keys(inner)
    elif isinstance(shape, (ListOf, MapOf, Opt)):
        yield from _named_keys(shape[0])    # .item / .value / .shape
    elif isinstance(shape, Via):
        yield from _named_keys(shape.shape)


KEYS = sorted({key for shape in SHIPPED.values()
               for key in _named_keys(shape)})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS) | st.text(), children, max_size=6),
    max_leaves=25)


# ---------------------------------------------------------------------------
# (a) Totality
# ---------------------------------------------------------------------------

@given(value=json_values)
def test_every_shape_and_validator_judges_any_json_value(value):
    for name, shape in SHIPPED.items():
        found = problems(value, shape, "x")
        assert isinstance(found, list), name
        assert all(isinstance(problem, str) and problem.startswith("x")
                   for problem in found), name
    for validate in REPORT_VALIDATORS:
        assert isinstance(validate(value), list)
    lines = [json.dumps(item) for item in
             (value if isinstance(value, list) else [value])]
    assert isinstance(validate_span_lines(lines), list)
    assert isinstance(validate_trace_lines(lines), list)


# ---------------------------------------------------------------------------
# (b) Soundness on what the commands really write
# ---------------------------------------------------------------------------

def _json_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _report_specimens(validate, shape):
    def specimens(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate(payload) == []
        yield payload, shape
        if "slo_report" in payload:    # openloop --slo embeds one
            yield payload["slo_report"], SLO_SHAPE
    return specimens


def _bench_specimens(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert validate_bench(payload) == []
    yield payload.pop("_meta"), META_SHAPE
    for gauges in payload.values():
        yield gauges, GAUGES_SHAPE


def _trace_specimens(path):
    assert validate_trace_file(path) == []
    header, *events, snapshot = _json_lines(path)
    yield header, TRACE_HEADER_SHAPE
    yield snapshot, SNAPSHOT_SHAPE
    for event in events[:20]:
        yield event, EVENT_SHAPE


def _span_specimens(path):
    assert validate_span_file(path) == []
    header, *spans = _json_lines(path)
    yield header, SPAN_HEADER_SHAPE
    for span in spans[:20]:
        yield span, SPAN_SHAPE


def _stream_specimens(path):
    assert validate_stream_file(path) == []
    with open(path, encoding="utf-8") as handle:
        header, *entries = [json.loads(line[9:]) for line in handle]
    yield header, HEADER_SHAPE
    for entry in entries[:20] + entries[-1:]:
        yield entry, ENTRY_SHAPES[entry["type"]]


#: Artifact name prefix -> (value, shape) specimens of the file; the
#: two ``None`` artifacts have no validator in the tree (yet).
ARTIFACT_SPECIMENS = {
    "CHAOS_": _report_specimens(validate_chaos, CHAOS_SHAPE),
    "FLEET_": _report_specimens(validate_fleet, FLEET_SHAPE),
    "SLO_": _report_specimens(validate_slo_report, SLO_SHAPE),
    "OPENLOOP_": _report_specimens(validate_openloop_report,
                                   OPENLOOP_SHAPE),
    "BENCH_": _bench_specimens,
    "TRACE_": _trace_specimens,
    "SPANS": _span_specimens,
    "STREAM": _stream_specimens,
    "PROOF_": None,
    "REPLAY": None,
}


@pytest.fixture(scope="module")
def specimens(tmp_path_factory):
    """``[(label, value, shape)]`` from every artifact the tier-1 golden
    cases write, each case run in-process in its own directory; the
    whole-file validators are asserted clean on the way."""
    found = []
    for case in goldens.CASES:
        if not case.gate or not case.artifacts:
            continue
        cwd = tmp_path_factory.mktemp(case.name)
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(io.StringIO()):
            patch.chdir(cwd)
            for step in case.steps:
                main(step.split())
        for artifact in case.artifacts:
            (prefix,) = [prefix for prefix in ARTIFACT_SPECIMENS
                         if artifact.startswith(prefix)]
            if ARTIFACT_SPECIMENS[prefix] is not None:
                found += [
                    (f"{case.name}/{artifact}", value, shape)
                    for value, shape in
                    ARTIFACT_SPECIMENS[prefix](os.path.join(cwd, artifact))]
    return found


def test_what_the_commands_write_is_valid_under_its_shape(specimens):
    # Every shipped shape is exercised by at least one real artifact.
    seen = {id(shape) for _, _, shape in specimens}
    assert {name for name, shape in SHIPPED.items()
            if id(shape) not in seen} == {"RECORD_SHAPE"}  # inside iter
    for label, value, shape in specimens:
        assert problems(value, shape) == [], label


# ---------------------------------------------------------------------------
# (c) Sensitivity
# ---------------------------------------------------------------------------

def _typed_leaves(value, shape, path=""):
    """``(path, steps, nullable)`` of every typed leaf of ``value``,
    walking it beside its shape: ``path`` as a problem spells it,
    ``steps`` the keys/indices to reach it."""
    if isinstance(shape, Leaf):
        if shape is not ANY:
            yield path, (), False
    elif isinstance(shape, Opt):
        if value is not None:    # from null, the shape's own type is valid
            for inner, steps, _ in _typed_leaves(value, shape.shape, path):
                yield inner, steps, True
    elif isinstance(shape, Via):
        yield from _typed_leaves(value, shape.shape, path)
    elif isinstance(shape, ListOf):
        for index, item in enumerate(value):
            for inner, steps, nullable in _typed_leaves(
                    item, shape.item, f"{path}[{index}]"):
                yield inner, (index, *steps), nullable
    else:
        shapes = ({key: shape.value for key in value}
                  if isinstance(shape, MapOf)
                  else {**shape.required, **shape.optional})
        for key, inner_shape in shapes.items():
            if key in value:
                for inner, steps, nullable in _typed_leaves(
                        value[key], inner_shape, f"{path} {key!r}".lstrip()):
                    yield inner, (key, *steps), nullable


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


#: Line shape -> (validator, lines before, lines after) making a whole
#: one-line JSONL artifact around a specimen of that shape.
_JSONL_AROUND = {
    id(EVENT_SHAPE): (
        validate_trace_lines,
        ['{"schema": "repro-trace/1", "events": 1}'],
        ['{"at": 0, "kind": "metrics.snapshot", "layer": "obs", '
         '"metrics": {}}']),
    id(SPAN_SHAPE): (
        validate_span_lines, ['{"schema": "repro-span/1", "spans": 1}'], []),
}


@given(data=st.data())
def test_a_leaf_of_another_json_type_is_a_problem_at_its_path(
        specimens, data):
    label, value, shape = data.draw(st.sampled_from(specimens))
    leaves = list(_typed_leaves(value, shape))
    if not leaves:
        return
    path, steps, nullable = data.draw(st.sampled_from(leaves))
    damaged = copy.deepcopy(value)
    parent = damaged
    for step in steps[:-1]:
        parent = parent[step]
    candidates = [item for item in (None, True, 7, 0.5, "x", [], {})
                  if _json_type(item) is not _json_type(parent[steps[-1]])
                  and not (nullable and item is None)]
    lines = _JSONL_AROUND.get(id(shape))
    if lines is not None and steps == ("kind",):
        # The right JSON type is not enough: a kind is one the site
        # table (repro.sites) declares.
        candidates.append("undeclared.kind")
    wrong = data.draw(st.sampled_from(candidates))
    parent[steps[-1]] = wrong
    found = problems(damaged, shape)
    assert any(problem.startswith(f"{path} is {wrong!r}, expected ")
               for problem in found), (label, path, found)
    if lines is not None:
        validate, before, after = lines
        assert validate([*before, json.dumps(value), *after]) == []
        assert any(problem.startswith(f"line 2: {path} is {wrong!r}, ")
                   for problem in
                   validate([*before, json.dumps(damaged), *after]))


@given(data=st.data())
def test_validators_stay_total_next_to_a_valid_report(specimens, data):
    """Random JSON rarely gets past the first missing key; damage inside
    a valid artifact reaches the nested shapes and the cross-checks."""
    label, value, shape = data.draw(st.sampled_from(specimens))
    damaged = copy.deepcopy(value)
    parent, node = None, damaged
    while isinstance(node, (dict, list)) and node and data.draw(
            st.booleans() if parent is not None else st.just(True)):
        step = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = (node, step), node[step]
    parent[0][parent[1]] = data.draw(json_values)
    assert isinstance(problems(damaged, shape), list)
    for validate in REPORT_VALIDATORS:
        assert isinstance(validate(damaged), list)


# ---------------------------------------------------------------------------
# The walker, unit by unit
# ---------------------------------------------------------------------------

def test_leaves_keep_json_types_apart():
    assert problems(5, INT) == problems(0, NAT) == problems(1, POS) == []
    for shape in (INT, NAT, POS, UNIT):
        assert problems(True, shape) != []      # a bool is not a number
    assert problems(-1, NAT) == ["is -1, expected a non-negative int"]
    assert problems(0, POS) and problems(1.0, INT)
    assert problems("", STR) == [] and problems("", TEXT) != []
    assert problems("caf\xe9", BYTES) == [] == problems("", BYTES)
    assert problems("Ā", BYTES) != [] and problems(5, BYTES) != []
    assert problems(1, BOOL) != [] and problems(False, BOOL) == []
    assert problems(0.5, UNIT) == problems(1, UNIT) == []
    assert problems(1.5, UNIT) and problems(float("nan"), UNIT)
    assert problems(object(), ANY) == []


def test_const_and_one_of_compare_by_type_and_value():
    assert problems("repro-x/1", const("repro-x/1")) == []
    assert problems("repro-x/0", const("repro-x/1"), "'schema'") == [
        "'schema' is 'repro-x/0', expected 'repro-x/1'"]
    assert problems(1, one_of((0, 1))) == []
    assert problems(True, one_of((0, 1))) != []
    assert problems(1.0, one_of((0, 1))) != []
    # Unhashable candidates are a problem, not a TypeError.
    assert problems([], one_of(("a", "b"))) == [
        "is [], expected 'a' or 'b'"]


def test_obj_wants_required_keys_and_ignores_unnamed_ones():
    shape = Obj({"a": INT}, {"b": STR})
    assert problems({"a": 1}, shape) == []
    assert problems({"a": 1, "b": "x", "extra": object()}, shape) == []
    assert problems({}, shape, "row") == ["row missing 'a'"]
    assert problems({"a": 1, "b": 2}, shape) == [
        "'b' is 2, expected a string"]
    assert problems([1], shape, "row") == ["row is [1], expected an object"]


def test_list_of_checks_items_and_length():
    assert problems([], ListOf(INT)) == []
    assert problems([], ListOf(INT, min_len=1), "'grid'") == [
        "'grid' has 0 entries, expected at least 1"]
    assert problems([1, "x"], ListOf(INT), "'grid'") == [
        "'grid'[1] is 'x', expected an int"]
    assert problems({}, ListOf(INT)) == ["is {}, expected a list"]


def test_map_of_checks_values_and_optionally_keys():
    assert problems({"a": 1, "b": 2}, MapOf(INT)) == []
    assert problems({"a": "x"}, MapOf(INT)) == [
        "'a' is 'x', expected an int"]
    assert problems({"a": 1, "c": 1}, MapOf(INT, ("a", "b")), "tally") == [
        "tally has unknown key 'c'"]
    assert problems(3, MapOf(INT)) == ["is 3, expected an object"]


def test_opt_accepts_null_but_not_a_missing_key():
    shape = Obj({"end_ns": Opt(INT)})
    assert problems({"end_ns": None}, shape) == []
    assert problems({"end_ns": 5}, shape) == []
    assert problems({"end_ns": "x"}, shape) == [
        "'end_ns' is 'x', expected an int"]
    assert problems({}, shape) == ["missing 'end_ns'"]


def test_checks_run_only_on_a_value_the_shape_accepted():
    calls = []

    def check(value):
        calls.append(value)
        return ["total is off"] if value["total"] != sum(value["parts"]) \
            else []

    shape = Obj({"total": INT, "parts": ListOf(INT)})
    assert problems({"total": 3, "parts": [1, 2]}, shape, "", check) == []
    assert problems({"total": 4, "parts": [1, 2]}, shape, "report",
                    check) == ["report total is off"]
    assert len(calls) == 2
    # A shape problem is reported alone: the check would have raised.
    assert problems({"total": 3, "parts": [1, "x"]}, shape, "", check) == [
        "'parts'[1] is 'x', expected an int"]
    assert len(calls) == 2
    # Via is the same thing, nested.
    nested = Obj({"inner": Via(shape, check)})
    assert problems({"inner": {"total": 4, "parts": [4, 1]}}, nested) == [
        "'inner' total is off"]
    assert problems({"inner": {"total": "x", "parts": []}}, nested) == [
        "'inner' 'total' is 'x', expected an int"]
    assert len(calls) == 3


def test_nesting_deeper_than_the_walk_is_a_problem_not_an_overflow():
    value = 1
    for _ in range(400):
        value = {"t": [value]}
    found = problems(value, RECORD_SHAPE.optional["result"], "result")
    assert found and all(isinstance(problem, str) for problem in found)


def test_jsonl_problems_counts_body_lines_but_not_the_uncounted():
    header, line = Obj({"schema": const("s/1"), "rows": NAT}), Obj({"n": INT})
    head = json.dumps({"schema": "s/1", "rows": 2})
    body = [json.dumps({"n": 1}), json.dumps({"n": 2})]
    assert jsonl_problems([head, *body], header, "rows", line) == []
    assert jsonl_problems([head, *body, "{}"], header, "rows", line,
                          closing=Obj({})) == []
    assert jsonl_problems([head, body[0]], header, "rows", line) == [
        "line 1: header declares 2 rows but the file has 1 row lines "
        "(truncated?)"]
    # A damaged header is reported as such, and not also counted.
    assert jsonl_problems(["[]", *body], header, "rows", line) == [
        "line 1: missing 'schema'", "line 1: missing 'rows'"]
    assert jsonl_problems([head, "{nope", "7"], header, "rows", line)[0] \
        .startswith("line 2: not JSON (")
    assert jsonl_problems([head, body[0], "7"], header, "rows", line) == [
        "line 3: not an object"]
    assert jsonl_problems([head, body[0], '{"n": "x"}'], header, "rows",
                          line) == ["line 3: 'n' is 'x', expected an int"]
