"""State transformers.

When Kitsune swaps code versions it must also migrate the heap: every
in-memory object whose layout changed gets rewritten by a programmer
supplied transformer.  Transformers here are functions from the old heap
to a new heap.  They are the component the paper's "state transformation
error" experiments (§6.2) inject bugs into, so the registry supports
replacing a correct transformer with a buggy variant without touching the
version code.
"""

from __future__ import annotations

import copy
import operator
from itertools import chain, compress, repeat
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import NoUpdatePath, StateTransformError

#: A state transformer maps an old-version heap to a new-version heap.
StateTransformer = Callable[[Dict[str, Any]], Dict[str, Any]]


#: Immutable leaf types a heap copy may share with the original.
_ATOMS = frozenset({str, bytes, int, float, bool, type(None)})
_ATOMS_AND_TUPLE = _ATOMS | {tuple}


def clone_heap(value: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """Deep-copy a process image made of plain data.

    Heaps are atom-keyed dicts, lists, tuples and sets over atoms; these
    are copied without ``copy.deepcopy``'s per-object dispatch, anything
    else is handed to it.  Both share ``memo`` (``id`` -> copy, deepcopy's
    own format), so a sub-container reachable twice — from ``value`` or
    from what else the caller copies with that memo — stays one object.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if memo is None:
        memo = {}
    clone = memo.get(id(value))
    if clone is not None:
        return clone
    if kind is dict and _ATOMS.issuperset(map(type, value)):
        # Atom keys are shared, so start from a shallow copy (keeps
        # order) and replace only the values that need copying — none,
        # for a flat store or a store of atom tuples (Redis's
        # ``("string", value)`` entries), which C-level passes tell.
        clone = memo[id(value)] = value.copy()
        values = value.values()
        if not _ATOMS.issuperset(map(type, values)) and not (
                _ATOMS_AND_TUPLE.issuperset(map(type, values))
                and _ATOMS.issuperset(map(type, chain.from_iterable(
                    compress(values, map(operator.is_, map(type, values),
                                         repeat(tuple))))))):
            for key, item in value.items():
                if type(item) not in _ATOMS:
                    clone[key] = clone_heap(item, memo)
    elif kind is list:
        clone = memo[id(value)] = []
        clone.extend([clone_heap(item, memo) for item in value])
    elif kind is set:
        clone = memo[id(value)] = {clone_heap(item, memo) for item in value}
    elif kind is tuple:
        items = [clone_heap(item, memo) for item in value]
        if all(map(operator.is_, items, value)):
            return value  # immutable all the way down: shared, like atoms
        # A cycle through this tuple has memoised it while copying items.
        clone = memo.get(id(value))
        if clone is None:
            clone = memo[id(value)] = tuple(items)
    else:
        clone = copy.deepcopy(value, memo)
    return clone


def identity_transform(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Transformer for updates that do not change state layout: the heap
    it is handed is already a private copy, so it is the new heap."""
    return heap


class TransformRegistry:
    """Transformers keyed by ``(app, old_version, new_version)``."""

    def __init__(self) -> None:
        self._transformers: Dict[Tuple[str, str, str], StateTransformer] = {}

    def register(self, app: str, old: str, new: str,
                 transformer: Optional[StateTransformer] = None):
        """Register a transformer; usable directly or as a decorator.

        ``registry.register("redis", "2.0.0", "2.0.1", fn)`` or::

            @registry.register("redis", "2.0.0", "2.0.1")
            def xform(heap): ...
        """
        def _install(fn: StateTransformer) -> StateTransformer:
            self._transformers[(app, old, new)] = fn
            return fn

        if transformer is not None:
            return _install(transformer)
        return _install

    def get(self, app: str, old: str, new: str) -> StateTransformer:
        """The transformer for one update pair."""
        try:
            return self._transformers[(app, old, new)]
        except KeyError:
            raise NoUpdatePath(
                f"no state transformer registered for {app} {old} -> {new}"
            ) from None

    def has(self, app: str, old: str, new: str) -> bool:
        """True when an update path exists."""
        return (app, old, new) in self._transformers

    def pairs(self, app: Optional[str] = None):
        """Registered ``(old, new)`` version edges, optionally per app.

        With ``app`` given, returns ``[(old, new), ...]``; without it,
        ``[(app, old, new), ...]``.  Registration order is preserved.
        mvelint's update-path audit walks these edges.
        """
        if app is None:
            return list(self._transformers)
        return [(old, new) for (a, old, new) in self._transformers
                if a == app]

    def apply(self, app: str, old: str, new: str,
              heap: Dict[str, Any]) -> Dict[str, Any]:
        """Run the transformer, wrapping failures as update errors.

        The old heap is never mutated: transformers receive a deep copy,
        matching Kitsune's behaviour of building the new state while the
        old process image still exists (and making rollback safe).  That
        copy is the transformer's to keep: it may retype it in place and
        return it, and under Mvedsua it becomes the follower's heap.
        """
        transformer = self.get(app, old, new)
        try:
            new_heap = transformer(clone_heap(heap))
        except StateTransformError:
            raise
        except Exception as exc:
            raise StateTransformError(
                f"transformer {app} {old}->{new} raised: {exc!r}"
            ) from exc
        if new_heap is None:
            raise StateTransformError(
                f"transformer {app} {old}->{new} returned no heap"
            )
        return new_heap
