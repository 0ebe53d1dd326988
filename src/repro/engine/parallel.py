"""Process-pool parallel enumeration.

Brute-force enumeration (``M(DB)``, ``MM(DB)``) is embarrassingly
parallel: the ``2^|V|`` interpretation space splits into disjoint blocks
by fixing the truth values of the first ``k`` vocabulary atoms, and each
block enumerates independently.  This module fans those blocks out over a
:class:`concurrent.futures.ProcessPoolExecutor`, and offers the same
fan-out for mapping a function over a benchmark suite's instances.

Everything shipped to workers (databases, interpretations, block specs)
is picklable by construction; worker entry points are module-level
functions.  When a pool cannot be created (restricted environments) or
``max_workers <= 1``, every function degrades to the serial path, so
callers need no fallback logic of their own.

Two runtime interactions (see :mod:`repro.runtime`):

* **budgets** — pool workers cannot tick the parent's cooperative
  :class:`~repro.runtime.budget.BudgetScope`, so while a scope is active
  every function here routes to the serial path, where each node is
  governed;
* **fault injection** — an active :class:`~repro.runtime.faults.
  FaultPlan` may crash a block/item dispatch (a seeded, deterministic
  stand-in for a dying worker); the lost work is recovered serially in
  the parent and counted in ``RUNTIME_STATS.worker_crashes_recovered``.
  A genuinely broken pool (e.g. :class:`~concurrent.futures.process.
  BrokenProcessPool`) is recovered the same way.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import Interpretation
from ..models.enumeration import (
    _rank_order,
    all_models,
    minimal_models_brute,
    models_in_block,
)
from ..obs import trace as _trace
from ..runtime.budget import RUNTIME_STATS, current_scope
from ..runtime.faults import maybe_crash_worker

T = TypeVar("T")
R = TypeVar("R")

#: Below this vocabulary size the serial enumerator wins outright and
#: parallel dispatch is pure overhead.
MIN_PARALLEL_ATOMS = 10


def default_workers() -> int:
    """The default worker count (CPU count, at least 2)."""
    return max(2, os.cpu_count() or 2)


def _make_pool(max_workers: int):
    """A process pool, or ``None`` where one cannot be created."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=max_workers)
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return None


def _pool_map(pool, fn, tasks) -> Optional[List]:
    """``pool.map`` with broken-pool recovery: returns the results, or
    ``None`` when the pool died mid-flight (callers recompute serially)."""
    try:
        with pool:
            return list(pool.map(fn, tasks))
    except (OSError, RuntimeError):
        # Covers BrokenProcessPool (a RuntimeError subclass) and pipe
        # failures from workers killed by the OS.
        return None


def split_blocks(
    vocabulary: Iterable[str], num_blocks: int
) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Partition the interpretation space into ``>= num_blocks`` disjoint
    blocks, each a ``(fixed_true, fixed_false)`` assignment of the first
    ``k`` atoms (``2^k >= num_blocks``)."""
    atoms = sorted(vocabulary)
    k = 0
    while (1 << k) < max(1, num_blocks) and k < len(atoms):
        k += 1
    prefix = atoms[:k]
    blocks = []
    for mask in range(1 << k):
        fixed_true = tuple(
            prefix[i] for i in range(k) if mask >> i & 1
        )
        fixed_false = tuple(
            prefix[i] for i in range(k) if not mask >> i & 1
        )
        blocks.append((fixed_true, fixed_false))
    return blocks


def _enumerate_block(
    args: Tuple[DisjunctiveDatabase, Tuple[str, ...], Tuple[str, ...]],
) -> List[Interpretation]:
    db, fixed_true, fixed_false = args
    return models_in_block(db, fixed_true, fixed_false)


def parallel_all_models(
    db: DisjunctiveDatabase, max_workers: Optional[int] = None
) -> List[Interpretation]:
    """``M(DB)`` by block-parallel explicit enumeration.

    Equals :func:`~repro.models.enumeration.all_models` as a set; the
    result is returned in the deterministic binary-counter order of the
    serial enumerator.  Under an active budget scope the serial
    (budget-governed) enumerator runs instead; crashed block dispatches
    are recovered serially in the parent.
    """
    workers = default_workers() if max_workers is None else max_workers
    if (
        workers <= 1
        or len(db.vocabulary) < MIN_PARALLEL_ATOMS
        or current_scope() is not None
    ):
        return all_models(db)
    blocks = split_blocks(db.vocabulary, workers)
    # Span on the parent side only: worker processes cannot contribute to
    # this process's trace, so the fan-out is recorded as one span with
    # block counts rather than per-worker children.
    with _trace.active_tracer().span(
        "parallel.all_models",
        workers=workers,
        blocks=len(blocks),
        atoms=len(db.vocabulary),
    ) as span:
        dispatched, crashed = [], []
        for block in blocks:
            (crashed if maybe_crash_worker() else dispatched).append(block)
        pool = _make_pool(workers) if dispatched else None
        chunks: List[List[Interpretation]] = []
        if dispatched:
            results = (
                _pool_map(
                    pool,
                    _enumerate_block,
                    [(db, ft, ff) for ft, ff in dispatched],
                )
                if pool is not None
                else None
            )
            if results is None:  # no pool, or the pool died: do it here
                results = [
                    models_in_block(db, ft, ff) for ft, ff in dispatched
                ]
            chunks.extend(results)
        for ft, ff in crashed:
            RUNTIME_STATS.inc("worker_crashes_recovered")
            chunks.append(models_in_block(db, ft, ff))
        merged = _rank_order(db, [m for chunk in chunks for m in chunk])
        span.set_attributes(models=len(merged), crashed_blocks=len(crashed))
        return merged


def _minimality_chunk(
    args: Tuple[List[Interpretation], List[Interpretation]],
) -> List[Interpretation]:
    candidates, universe = args
    return [
        m for m in candidates if not any(other < m for other in universe)
    ]


def parallel_minimal_models(
    db: DisjunctiveDatabase, max_workers: Optional[int] = None
) -> List[Interpretation]:
    """``MM(DB)`` by parallel enumeration plus a parallel pairwise
    minimality filter (equals
    :func:`~repro.models.enumeration.minimal_models_brute` as a set).
    A database whose clause graph is disconnected is decomposed first and
    the answer assembled as a per-component product — each component's
    sweep is ``2^|Vᵢ|`` instead of ``2^|V|``.  Serial under an active
    budget scope; crash-injected or broken-pool chunks are recovered
    serially."""
    workers = default_workers() if max_workers is None else max_workers
    if (
        workers <= 1
        or len(db.vocabulary) < MIN_PARALLEL_ATOMS
        or current_scope() is not None
    ):
        return minimal_models_brute(db)
    from ..sat.decompose import decompose, product_interpretations

    with _trace.active_tracer().span(
        "parallel.minimal_models",
        workers=workers,
        atoms=len(db.vocabulary),
    ) as span:
        parts = decompose(db)
        if parts is not None:
            span.set_attribute("components", len(parts))
            per_part = [
                parallel_minimal_models(part, max_workers=workers)
                for part in parts
            ]
            return _rank_order(db, product_interpretations(per_part))
        models = parallel_all_models(db, max_workers=workers)
        if not models:
            return []
        chunk_size = max(1, (len(models) + workers - 1) // workers)
        chunks = [
            models[i : i + chunk_size]
            for i in range(0, len(models), chunk_size)
        ]
        dispatched, crashed = [], []
        for chunk in chunks:
            (crashed if maybe_crash_worker() else dispatched).append(chunk)
        pool = _make_pool(workers) if dispatched else None
        filtered: List[List[Interpretation]] = []
        if dispatched:
            results = (
                _pool_map(
                    pool,
                    _minimality_chunk,
                    [(chunk, models) for chunk in dispatched],
                )
                if pool is not None
                else None
            )
            if results is None:
                results = [
                    _minimality_chunk((chunk, models))
                    for chunk in dispatched
                ]
            filtered.extend(results)
        for chunk in crashed:
            RUNTIME_STATS.inc("worker_crashes_recovered")
            filtered.append(_minimality_chunk((chunk, models)))
        span.set_attributes(crashed_chunks=len(crashed))
        return [m for chunk in filtered for m in chunk]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: Optional[int] = None,
) -> List[R]:
    """Map a picklable function over items with a process pool.

    The benchmark suites use this to fan out per-instance work (one
    database per task).  Order is preserved.  Serial fallback when the
    pool is unavailable, ``max_workers <= 1``, or a budget scope is
    active; items whose dispatch is crash-injected (or lost to a broken
    pool) are recomputed serially in the parent, still in order.
    """
    items = list(items)
    workers = default_workers() if max_workers is None else max_workers
    if workers <= 1 or len(items) <= 1 or current_scope() is not None:
        return [fn(item) for item in items]
    dispatched, crashed_indices = [], []
    for index, item in enumerate(items):
        if maybe_crash_worker():
            crashed_indices.append(index)
        else:
            dispatched.append((index, item))
    pool = _make_pool(min(workers, max(1, len(dispatched))))
    results: List = [None] * len(items)
    if dispatched:
        mapped = (
            _pool_map(pool, fn, [item for _, item in dispatched])
            if pool is not None
            else None
        )
        if mapped is None:
            mapped = [fn(item) for _, item in dispatched]
        for (index, _), value in zip(dispatched, mapped):
            results[index] = value
    for index in crashed_indices:
        RUNTIME_STATS.inc("worker_crashes_recovered")
        results[index] = fn(items[index])
    return results
