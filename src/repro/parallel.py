"""Sharded execution of independent work items across processes.

The chaos campaign and the SLO and open-loop scenarios all run
*independent* items (grid cells, scenario cells) and must produce
byte-identical reports at any worker count, so all nondeterminism (OS
scheduling, completion order) is confined to *when* a result arrives,
never to *what* it says or where it lands in the merged list.

The rules that make that hold:

* workers receive **picklable descriptions** of their work (names,
  seeds, indices), never closures — each worker regenerates the actual
  objects locally, relying on the same determinism the serial path
  relies on;
* worker functions are **top-level module functions** (or
  ``functools.partial`` over one), so the machinery is spawn-safe
  (macOS/Windows default) while preferring ``fork`` where available
  (cheap on Linux, and the workers re-derive state anyway);
* every result is paired with its **item index** and the parent sorts
  on it before returning, so the merge is order-insensitive.

:func:`map_items` is the whole interface for a caller whose items are
independent given their index; :func:`map_shards` is for one that
amortises set-up over a shard (the chaos grid regenerates its fault
grid once per worker, not once per cell).
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import os
from typing import Any, Callable, List, Optional, Union


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


def map_shards(shard_worker: Callable[[List[int]], List[Any]],
               n_items: int, workers: int, *,
               method: Optional[str] = None) -> List[Any]:
    """Results for items ``0 .. n_items-1``, in item order.

    ``shard_worker(indices)`` runs one shard and returns one result per
    index, in the order given; it must be picklable (see the module
    docstring).

    ``workers <= 1`` (or a single shard) runs in-process — the serial
    path stays the golden reference and needs no pool at all.  So does
    any call made from inside a pool worker: daemonic processes cannot
    have children, so a sharded run nested under another sharded run
    degrades to the serial path instead of crashing the outer pool.

    Workers regenerate all state from picklable descriptions, so either
    start method is correct; ``fork`` (preferred where available) just
    skips the interpreter re-exec.  Pass ``method`` to force one (tests
    force ``spawn`` to prove spawn-safety).
    """
    shards = shard_round_robin(n_items, workers)
    if (workers <= 1 or len(shards) <= 1
            or multiprocessing.current_process().daemon):
        results = [shard_worker(shard) for shard in shards]
    else:
        if method is None:
            method = ("fork"
                      if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
        ctx = multiprocessing.get_context(method)
        with ctx.Pool(processes=min(workers, len(shards))) as pool:
            results = pool.map(shard_worker, shards)
    indexed = [pair for shard, shard_results in zip(shards, results)
               for pair in zip(shard, shard_results)]
    indexed.sort(key=lambda pair: pair[0])
    return [result for _, result in indexed]


def map_items(item_worker: Callable[[int], Any], n_items: int,
              workers: int, *, method: Optional[str] = None) -> List[Any]:
    """``[item_worker(0), …, item_worker(n_items - 1)]``, computed
    across ``workers`` processes; ``item_worker`` must be picklable."""
    return map_shards(functools.partial(_each, item_worker), n_items,
                      workers, method=method)


def _each(item_worker: Callable[[int], Any], indices: List[int]) -> List[Any]:
    return [item_worker(index) for index in indices]
