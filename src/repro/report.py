"""What an artifact looks like, declared once and checked by one walker.

Every ``repro-*/N`` report, JSONL file and recorded stream is decoded
JSON, and "is it well-formed" is one algorithm: walk the value against
an expected shape, stamping each problem with the path it was found at.
A subsystem declares its artifact's shape as a module constant beside
the code that builds it (``CHAOS_SHAPE``, ``SLO_SHAPE``, the stream's
``HEADER_SHAPE`` ...) from the closed vocabulary below, and
:func:`problems` is the only walker.  It is *total*: for any decoded
JSON value it returns a list of strings and never raises, so a
malformed file is a typed refusal, never a traceback.

Leaves: :data:`ANY`, :data:`INT`, :data:`NAT` (>= 0), :data:`POS`
(>= 1), :data:`STR`, :data:`TEXT` (non-empty), :data:`BYTES` (latin-1,
how the stream stores bytes), :data:`BOOL`, :data:`UNIT` (a number in
[0, 1]), :func:`const`, :func:`one_of`; a bool is never an int here,
JSON keeps them apart.  Containers: :class:`Obj`, :class:`ListOf`,
:class:`MapOf`, :class:`Opt`, and :class:`Via` for cross-field checks.

Standard library only: every layer may import it.
"""

from __future__ import annotations

import json
from typing import (Any, Callable, Container, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence)


class Leaf(NamedTuple):
    """A scalar test; ``expected`` finishes "... is 5, expected"."""
    expected: str
    accepts: Callable[[Any], bool]


ANY = Leaf("anything", lambda value: True)
INT = Leaf("an int", lambda value: type(value) is int)
NAT = Leaf("a non-negative int",
           lambda value: type(value) is int and value >= 0)
POS = Leaf("a positive int", lambda value: type(value) is int and value >= 1)
STR = Leaf("a string", lambda value: isinstance(value, str))
TEXT = Leaf("a non-empty string",
            lambda value: isinstance(value, str) and value != "")
BYTES = Leaf("a latin-1 string", lambda value: isinstance(value, str)
             and (value == "" or max(value) <= "\xff"))
BOOL = Leaf("a bool", lambda value: isinstance(value, bool))
UNIT = Leaf("a number in [0, 1]",
            lambda value: type(value) in (int, float) and 0 <= value <= 1)


def one_of(values: Iterable[Any]) -> Leaf:
    """Exactly one of ``values`` (same JSON type, so ``True`` is not 1)."""
    allowed = tuple(values)
    return Leaf(" or ".join(map(repr, allowed)),
                lambda value: any(type(value) is type(item) and value == item
                                  for item in allowed))


def const(value: Any) -> Leaf:
    """Exactly ``value`` (a schema id)."""
    return one_of((value,))


class Obj(NamedTuple):
    """An object carrying every ``required`` key and, where present,
    well-shaped ``optional`` ones; other keys are not looked at."""
    required: Mapping[str, Any]
    optional: Mapping[str, Any] = {}


class ListOf(NamedTuple):
    """A list of ``item`` shapes, at least ``min_len`` long."""
    item: Any
    min_len: int = 0


class MapOf(NamedTuple):
    """An object used as a table: every value is a ``value`` shape and,
    with ``keys``, every key is one of them."""
    value: Any
    keys: Optional[Container[str]] = None


class Opt(NamedTuple):
    """``null``, or the shape."""
    shape: Any


class Via:
    """``shape``, then cross-field ``checks`` (value -> problem strings)
    run only on a value the shape accepted, so they index without
    guarding."""

    def __init__(self, shape: Any,
                 *checks: Callable[[Any], Iterable[str]]) -> None:
        self.shape = shape
        self.checks = checks


def problems(value: Any, shape: Any, where: str = "",
             *checks: Callable[[Any], Iterable[str]]) -> List[str]:
    """What is wrong with ``value`` as a ``Via(shape, *checks)`` (empty =
    nothing), each problem starting with ``where`` and the path inside
    the value."""
    try:
        found = _walk(value, Via(shape, *checks))
    except RecursionError:
        # json.loads accepts deeper nesting than the walk has frames for.
        found = [" nests too deeply to check"]
    return [(where + problem).lstrip() for problem in found]


def _walk(value: Any, shape: Any) -> Sequence[str]:
    """Problems as path suffixes (`` 'key'[3] is 5, expected ...``), so
    a path is only ever spelled out for a value that has a problem."""
    if isinstance(shape, Leaf):
        if shape.accepts(value):
            return ()
        return (f" is {value!r}, expected {shape.expected}",)
    if isinstance(shape, Opt):
        return () if value is None else _walk(value, shape.shape)
    if isinstance(shape, Via):
        return _walk(value, shape.shape) or [
            f" {found}" for check in shape.checks for found in check(value)]
    if isinstance(shape, ListOf):
        if not isinstance(value, list):
            return (f" is {value!r}, expected a list",)
        found = [f"[{index}]{inner}" for index, item in enumerate(value)
                 for inner in _walk(item, shape.item)]
        if len(value) < shape.min_len:
            found.append(f" has {len(value)} entries, expected at least "
                         f"{shape.min_len}")
        return found
    if not isinstance(value, dict):
        return (f" is {value!r}, expected an object",)
    if isinstance(shape, MapOf):
        found = [f" has unknown key {key!r}" for key in value
                 if shape.keys is not None and key not in shape.keys]
        return found + [f" {key!r}{inner}" for key, item in value.items()
                        for inner in _walk(item, shape.value)]
    found = [f" missing {key!r}" for key in shape.required
             if key not in value]
    for named in (shape.required, shape.optional):
        for key, inner_shape in named.items():
            if key in value:
                found += [f" {key!r}{inner}"
                          for inner in _walk(value[key], inner_shape)]
    return found


def decode(text: str) -> Any:
    """``json.loads``, with text nested deeper than the interpreter can
    follow a ``ValueError`` like any other text that is not JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nests too deeply to decode") from None


def read_lines(path: str) -> List[str]:
    """The non-blank lines of a JSONL artifact, newlines stripped; a
    file that is not UTF-8 text is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def jsonl_file_problems(path: str, judge: Callable[[List[str]], List[str]]
                        ) -> List[str]:
    """``judge(lines)`` of a JSONL artifact on disk; a file that is not
    text is its own one problem."""
    try:
        return judge(read_lines(path))
    except UnicodeDecodeError as exc:
        return [f"not UTF-8 text ({exc})"]


def jsonl_problems(lines: Sequence[str], header: Any, count_key: str,
                   line_shape: Any, closing: Any = None) -> List[str]:
    """Problems with a header-then-body JSONL artifact (``repro-span/1``,
    ``repro-trace/1``): line 1 is a ``header`` whose ``count_key``
    declares how many body lines follow, every body line is a
    ``line_shape`` object and, with ``closing``, one last line of that
    shape — not counted — ends the file."""
    present = len(lines) - 1 - (closing is not None)

    def count(head: Mapping[str, Any]) -> List[str]:
        if head[count_key] == present:
            return []
        return [f"header declares {head[count_key]} {count_key} but the "
                f"file has {present} {count_key[:-1]} lines (truncated?)"]

    found: List[str] = []
    for number, line in enumerate(lines, start=1):
        try:
            value = decode(line)
        except ValueError as exc:
            found.append(f"line {number}: not JSON ({exc})")
            continue
        if number == 1:
            # A header that is no object is one that declares nothing.
            found += problems(value if isinstance(value, dict) else {},
                              header, "line 1:", count)
        elif isinstance(value, dict):
            found += problems(
                value, line_shape if number <= present + 1 else closing,
                f"line {number}:")
        else:
            found.append(f"line {number}: not an object")
    return found
