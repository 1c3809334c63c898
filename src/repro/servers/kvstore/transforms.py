"""State transformers for the KV-store update, correct and buggy.

The correct transformer implements the paper's intent: every pre-update
entry becomes a typed entry with ``typ = "string"``.  The two buggy
variants reproduce §2.4's state-transformation error classes:

* :func:`xform_uninitialised_type` — "field t is mistakenly left
  uninitialized" — entries migrate but their type is None; the first
  command that touches such an entry crashes the new version.
* :func:`xform_drop_table` — "the programmer mistakenly forgets to copy
  over the entries from the old table" — the new version starts with an
  empty store and fails GETs that should succeed (a divergence, not a
  crash).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.dsu.transform import TransformRegistry


def xform_1_to_2(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Correct transformer: type every existing entry as ``string``.

    Retypes the table in place (reassigning a key's value while iterating
    leaves the dict's size alone): the heap is the caller's private copy,
    and a second table beside it would double the update's footprint.
    """
    table = heap["table"]
    for key, value in table.items():
        table[key] = {"val": value, "typ": "string"}
    return heap


def xform_uninitialised_type(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Buggy transformer: migrates entries but never sets their type."""
    heap["table"] = {
        key: {"val": value, "typ": None}
        for key, value in heap["table"].items()
    }
    return heap


def xform_drop_table(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Buggy transformer: forgets to copy the table entirely."""
    heap["table"] = {}
    return heap


def xform_2_to_1(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Backward transformer (used by TTST validation): drop the types."""
    heap["table"] = {
        key: entry["val"] for key, entry in heap["table"].items()
    }
    return heap


def xform_corrupt_values(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Buggy forward transformer that corrupts every value.

    Paired with :func:`xform_uncorrupt_values` it forms the "both the
    forward and the backward transformations are wrong, but in a
    reversible way" case of the paper's §7 TTST comparison: the round
    trip is clean, the deployed state is broken.
    """
    heap["table"] = {
        key: {"val": value + "!corrupted", "typ": "string"}
        for key, value in heap["table"].items()
    }
    return heap


def xform_uncorrupt_values(heap: Dict[str, Any]) -> Dict[str, Any]:
    """The matching (equally wrong) backward transformer."""
    heap["table"] = {
        key: entry["val"][: -len("!corrupted")]
        if entry["val"].endswith("!corrupted") else entry["val"]
        for key, entry in heap["table"].items()
    }
    return heap


def xform_uninitialised_backward(heap: Dict[str, Any]) -> Dict[str, Any]:
    """Backward transformer that happens to mask the uninitialised-type
    bug: it only reads ``val``, so the round trip is clean even though
    the forward transform left every type dangling."""
    heap["table"] = {
        key: entry["val"] for key, entry in heap["table"].items()
    }
    return heap


def kv_transforms() -> TransformRegistry:
    """A registry holding the correct 1.0 -> 2.0 transformer."""
    registry = TransformRegistry()
    registry.register("kvstore", "1.0", "2.0", xform_1_to_2)
    return registry
