"""Abstract execution of state transformers.

Each registered :data:`~repro.dsu.transform.StateTransformer` is run —
twice — against a synthetic heap derived from the old version's
:meth:`~repro.dsu.version.ServerVersion.initial_heap`, populated by
replaying the app's seed requests through ``handle()`` so containers
hold realistic entries.  The checks mirror the paper's §2.4/§6.2
state-transformation error classes:

* **MVE301 transformer-crash** — the transformer raises or returns no
  heap (caught here instead of mid-update).
* **MVE302 key-drop** — a top-level heap key, or entries inside a
  top-level container, vanish across the transform ("forgets to copy
  over the entries from the old table").
* **MVE303 type-change** — the transform changes a top-level value's
  container kind (dict/list/scalar), or returns something that is not a
  heap dict at all.
* **MVE304 input-mutation** — the transformer mutates its input heap
  *and* returns a different object, splitting state between the two;
  callers that keep the input for rollback would see a corrupted old
  heap.  (Mutating in place and returning the same heap is the accepted
  Kitsune idiom and is not flagged.)
* **MVE305 non-determinism** — two runs over equal inputs produce
  different heaps; replay-based validation (TTST, MVE catch-up) would
  diverge spuriously.
* **MVE306 uninitialised-field** — a migrated entry gained a field whose
  value is ``None`` where the source entry had real data ("field t is
  mistakenly left uninitialized", the paper's Figure 1 bug).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.analysis.findings import Finding, Severity
from repro.dsu.transform import TransformRegistry, clone_heap
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.errors import NoUpdatePath

ANALYZER = "transform"


def seeded_heap(version: ServerVersion,
                seed_requests: Iterable[bytes] = ()) -> Dict[str, Any]:
    """A synthetic old-version heap with realistic contents.

    Starts from ``initial_heap()`` and replays ``seed_requests`` through
    ``handle()`` (no I/O context, fresh session), ignoring requests the
    version rejects or cannot run detached — the audit only needs *some*
    populated state, not a faithful server.
    """
    heap = version.initial_heap()
    session: Dict[str, Any] = {}
    for request in seed_requests:
        try:
            version.handle(heap, request, session=session, io=None)
        except Exception:
            continue
    return heap


def audit_transforms(app: str, versions: VersionRegistry,
                     transforms: TransformRegistry,
                     seed_requests: Iterable[bytes] = ()) -> List[Finding]:
    """Audit every transformer registered for ``app``."""
    findings: List[Finding] = []
    seeds = tuple(seed_requests)
    for old, new in transforms.pairs(app):
        try:
            old_version = versions.get(app, old)
        except NoUpdatePath:
            continue  # dangling edge; the update-path audit reports it
        transformer = transforms.get(app, old, new)
        location = f"{old}->{new} transformer"
        heap = seeded_heap(old_version, seeds)
        findings.extend(_audit_one(app, location, transformer, heap))
    return findings


def _audit_one(app: str, location: str, transformer,
               heap: Dict[str, Any]) -> List[Finding]:
    findings: List[Finding] = []

    def emit(code: str, severity: Severity, message: str) -> None:
        findings.append(Finding(code, severity, ANALYZER, app, location,
                                message))

    pristine = clone_heap(heap)
    first_input = clone_heap(heap)
    first = _run(transformer, first_input)
    if isinstance(first, str):
        emit("MVE301", Severity.ERROR, f"transformer raised: {first}")
        return findings
    if first is None:
        emit("MVE301", Severity.ERROR, "transformer returned no heap")
        return findings
    if not isinstance(first, dict):
        emit("MVE303", Severity.ERROR,
             f"transformer returned {type(first).__name__}, not a heap "
             f"dict")
        return findings

    # MVE305: run again on an equal input; outputs must match.
    second = _run(transformer, clone_heap(heap))
    if isinstance(second, str):
        emit("MVE305", Severity.ERROR,
             f"second run over an equal heap raised: {second}")
    elif not _equal(first, second):
        emit("MVE305", Severity.ERROR,
             "two runs over equal heaps produced different results: "
             "the transformer is non-deterministic")

    # MVE304: mutated its input while returning a different object.
    if first is not first_input and not _equal(first_input, pristine):
        emit("MVE304", Severity.ERROR,
             "transformer mutates its input heap but returns a "
             "different one; callers keeping the input for rollback "
             "would see corrupted old-version state")

    findings.extend(_diff_heaps(app, location, pristine, first))
    return findings


def _run(transformer, heap: Dict[str, Any]):
    """Run the transformer; a string return means it raised (the repr)."""
    try:
        return transformer(heap)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


def _diff_heaps(app: str, location: str, old: Dict[str, Any],
                new: Dict[str, Any]) -> List[Finding]:
    """Key-drop, container-kind, and uninitialised-field checks."""
    findings: List[Finding] = []

    def emit(code: str, severity: Severity, message: str) -> None:
        findings.append(Finding(code, severity, ANALYZER, app, location,
                                message))

    for key in old:
        if key not in new:
            emit("MVE302", Severity.ERROR,
                 f"top-level heap key {key!r} dropped by the transform")
            continue
        old_value, new_value = old[key], new[key]
        old_kind, new_kind = _kind(old_value), _kind(new_value)
        if old_kind != new_kind:
            emit("MVE303", Severity.ERROR,
                 f"heap key {key!r} changed kind: {old_kind} -> "
                 f"{new_kind}")
            continue
        if old_kind != "dict":
            continue
        dropped = sorted(set(old_value) - set(new_value))
        if dropped:
            shown = ", ".join(repr(k) for k in dropped[:3])
            more = "" if len(dropped) <= 3 else f", +{len(dropped) - 3} more"
            emit("MVE302", Severity.ERROR,
                 f"{len(dropped)} of {len(old_value)} entries dropped "
                 f"from {key!r} ({shown}{more})")
        for entry_key in set(old_value) & set(new_value):
            none_fields = _uninitialised_fields(old_value[entry_key],
                                                new_value[entry_key])
            for field_name in none_fields:
                emit("MVE306", Severity.WARNING,
                     f"entry {entry_key!r} of {key!r} has new field "
                     f"{field_name!r} = None after the transform: "
                     f"uninitialised-field bug (paper §2.4)")
    return findings


def _kind(value: Any) -> str:
    if isinstance(value, dict):
        return "dict"
    if isinstance(value, (list, tuple)):
        return "sequence"
    return type(value).__name__


def _uninitialised_fields(old_entry: Any, new_entry: Any) -> List[str]:
    """Fields of the migrated entry that are None but carried data (or
    did not exist) before the transform."""
    if not isinstance(new_entry, dict):
        return []
    fields = []
    for field_name, value in new_entry.items():
        if value is not None:
            continue
        if isinstance(old_entry, dict) and old_entry.get(field_name) is None \
                and field_name in old_entry:
            continue  # was already None: not introduced by this transform
        fields.append(field_name)
    return sorted(fields)
