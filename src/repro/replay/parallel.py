"""Shared multiprocessing machinery for parallel campaign execution.

The chaos campaign and the perf harness shard *independent* work items
(grid cells, scenarios) across worker processes and merge the results
deterministically — the parallel path must produce byte-identical
reports, so all nondeterminism (OS scheduling, completion order) is
confined to *when* a result arrives, never to *what* it says or where
it lands in the merged report.

The rules that make that hold:

* workers receive **picklable descriptions** of their work (names,
  seeds, indices), never closures — each worker regenerates the actual
  objects locally, relying on the same determinism the serial path
  relies on;
* worker functions are **top-level module functions**, so the machinery
  is spawn-safe (macOS/Windows default) while preferring ``fork`` where
  available (cheap on Linux, and the workers re-derive state anyway);
* results carry their **original indices** and the parent reorders
  before assembling the report, so the merge is order-insensitive.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence, Union


class WorkersError(ValueError, argparse.ArgumentTypeError):
    """A bad ``--workers`` value; argparse prints its message as is."""


def resolve_workers(spec: Union[int, str, None]) -> int:
    """Parse a ``--workers N|auto`` value into a validated count — the
    argparse ``type=`` of every ``--workers`` option.

    ``auto`` (or None) means one worker per available CPU; anything else
    must be a positive integer.
    """
    if spec is None or spec == "auto":
        return os.cpu_count() or 1
    try:
        workers = int(spec)
    except (TypeError, ValueError):
        raise WorkersError(f"must be a positive integer or 'auto', "
                           f"not {spec!r}") from None
    if workers < 1:
        raise WorkersError(f"must be >= 1, got {workers}")
    return workers


def mp_context(method: Optional[str] = None):
    """A multiprocessing context, preferring ``fork`` where available.

    Workers regenerate all state from picklable descriptions, so either
    start method is correct; ``fork`` just skips the interpreter
    re-exec.  Pass ``method`` to force one (tests force ``spawn`` to
    prove spawn-safety).
    """
    if method is None:
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
    return multiprocessing.get_context(method)


def shard_round_robin(n_items: int, workers: int) -> List[List[int]]:
    """Deal item indices round-robin into at most ``workers`` shards.

    Round-robin (rather than contiguous blocks) spreads any
    position-correlated cost skew — e.g. the chaos grid's heavyweight
    predicate cells all sit at the tail — evenly across workers.  Empty
    shards are dropped.
    """
    shards: List[List[int]] = [[] for _ in range(max(1, workers))]
    for index in range(n_items):
        shards[index % len(shards)].append(index)
    return [shard for shard in shards if shard]


def run_sharded(worker: Callable[[Any], Any], shard_args: Sequence[Any],
                workers: int, *, method: Optional[str] = None) -> List[Any]:
    """Run ``worker`` over ``shard_args``, one result per arg, in order.

    ``workers <= 1`` (or a single shard) runs in-process — the serial
    path stays the golden reference and needs no pool at all.  So does
    any call made from inside a pool worker: daemonic processes cannot
    have children, so a sharded run nested under another sharded run
    (e.g. the chaos-campaign-parallel perf scenario inside
    ``repro perf --workers N``) degrades to the serial path instead of
    crashing the outer pool.
    """
    if (workers <= 1 or len(shard_args) <= 1
            or multiprocessing.current_process().daemon):
        return [worker(args) for args in shard_args]
    ctx = mp_context(method)
    with ctx.Pool(processes=min(workers, len(shard_args))) as pool:
        return pool.map(worker, shard_args)
