"""Process-wide memoization for the evaluation engine.

Every object this layer caches is a *pure function of immutable, hashable
inputs*: selected-model sets, minimal-model sets,
:class:`~repro.semantics.perf.PriorityRelation` instances, and the
classical clause / CNF translations of a database.  The cache is therefore
transparent — a hit returns exactly the object a recomputation would have
produced — and safe to share across sessions, semantics instances and
repeated benchmark passes.

Entries live in one bounded LRU store keyed on ``(kind, key)`` where
``kind`` names the cached object family (``"model_set"``, ``"infers"``,
``"minimal_models"``, ``"priority_relation"``, ``"cnf"``, ...) and ``key``
is the hashable identity of the computation — typically a
``(DisjunctiveDatabase, semantics-name, engine, params)`` tuple.  Hits,
misses and evictions are counted per kind and surfaced as a
``SatSolver.stats()``-style flat dict (plus a per-kind breakdown) through
:meth:`EngineCache.stats` and the ``repro-ddb cache`` CLI subcommand.

The module-level singleton :data:`ENGINE_CACHE` is the process-wide
instance used by the cached engine, the session layer and the always-safe
helpers (:func:`priority_relation_for`, :func:`classical_clauses_for`).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple

from ..obs.metrics import METRICS

#: Default maximum number of entries retained across all kinds.
DEFAULT_MAXSIZE = 4096


class EngineCache:
    """A bounded, thread-safe LRU cache with per-kind statistics.

    Args:
        maxsize: maximum number of entries (all kinds combined); least
            recently used entries are evicted beyond this bound.  ``0``
            disables caching entirely (every lookup misses and nothing is
            stored), which keeps :meth:`get_or_compute` usable as a plain
            call-through.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits: "Counter[str]" = Counter()
        self._misses: "Counter[str]" = Counter()
        self._evictions: "Counter[str]" = Counter()

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def get_or_compute(
        self, kind: str, key: Hashable, builder: Callable[[], Any]
    ) -> Any:
        """The cached value for ``(kind, key)``, computing it on a miss.

        ``builder`` runs outside the lock (computations may themselves
        consult the cache); if two threads race on the same miss, the
        first stored value wins and both observe one miss each.
        """
        full_key = (kind, key)
        with self._lock:
            try:
                value = self._entries[full_key]
            except KeyError:
                self._misses[kind] += 1
            else:
                self._entries.move_to_end(full_key)
                self._hits[kind] += 1
                return value
        value = builder()
        with self._lock:
            if full_key in self._entries:
                return self._entries[full_key]
            if self.maxsize == 0:
                return value
            self._entries[full_key] = value
            while len(self._entries) > self.maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                self._evictions[evicted_key[0]] += 1
        return value

    def peek(self, kind: str, key: Hashable) -> Any:
        """The cached value without recording a hit or refreshing LRU
        order; raises :class:`KeyError` on absence (test/introspection
        helper)."""
        with self._lock:
            return self._entries[(kind, key)]

    def __contains__(self, full_key: Tuple[str, Hashable]) -> bool:
        with self._lock:
            return full_key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self._hits.clear()
            self._misses.clear()
            self._evictions.clear()

    def configure(self, maxsize: int) -> None:
        """Change the entry bound, evicting LRU entries if shrinking."""
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        with self._lock:
            self.maxsize = maxsize
            while len(self._entries) > maxsize:
                evicted_key, _ = self._entries.popitem(last=False)
                self._evictions[evicted_key[0]] += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate statistics in the ``SatSolver.stats()`` style.

        Returns a dict with flat totals (``entries``, ``maxsize``,
        ``hits``, ``misses``, ``evictions``, ``hit_rate``) plus per-kind
        breakdowns under ``entries_by_kind`` / ``hits_by_kind`` /
        ``misses_by_kind`` / ``evictions_by_kind``.
        """
        with self._lock:
            entries_by_kind: "Counter[str]" = Counter(
                kind for kind, _ in self._entries
            )
            hits = sum(self._hits.values())
            misses = sum(self._misses.values())
            lookups = hits + misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": hits,
                "misses": misses,
                "evictions": sum(self._evictions.values()),
                "hit_rate": (hits / lookups) if lookups else 0.0,
                "entries_by_kind": dict(entries_by_kind),
                "hits_by_kind": dict(self._hits),
                "misses_by_kind": dict(self._misses),
                "evictions_by_kind": dict(self._evictions),
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"EngineCache(entries={s['entries']}/{s['maxsize']}, "
            f"hits={s['hits']}, misses={s['misses']}, "
            f"evictions={s['evictions']})"
        )


#: The process-wide cache instance.
ENGINE_CACHE = EngineCache()


def _cache_metrics() -> Dict[str, float]:
    stats = ENGINE_CACHE.stats()
    return {
        f"repro_cache_{name}": float(stats[name])
        for name in ("entries", "maxsize", "hits", "misses", "evictions",
                     "hit_rate")
    }


# Pull-style exposition: the cache keeps its own per-kind counters under
# its own lock; the registry polls the flat totals at expose() time.
METRICS.register_collector("engine_cache", _cache_metrics)


def cache_stats() -> Dict[str, Any]:
    """Statistics of the process-wide cache."""
    return ENGINE_CACHE.stats()


def clear_cache() -> None:
    """Reset the process-wide cache (entries and counters)."""
    ENGINE_CACHE.clear()


def configure_cache(maxsize: int) -> None:
    """Re-bound the process-wide cache."""
    ENGINE_CACHE.configure(maxsize)


# ----------------------------------------------------------------------
# Always-safe memoized helpers (pure functions of immutable inputs).
# Imports happen lazily so this module stays at the bottom of the layer
# graph and can be used from repro.logic / repro.sat without cycles.
# ----------------------------------------------------------------------
def classical_clauses_for(db) -> Tuple[Tuple, ...]:
    """The classical literal form of every clause of ``db``, memoized.

    Each inner tuple holds the :class:`~repro.logic.atoms.Literal`
    objects of one clause; clause order is the database's canonical
    (sorted) order so downstream solvers see a deterministic sequence.
    """
    return ENGINE_CACHE.get_or_compute(
        "classical_clauses",
        db,
        lambda: tuple(tuple(c.to_classical_literals()) for c in db),
    )


def database_cnf_for(db) -> Tuple:
    """The CNF translation of ``db`` as a tuple of frozen clauses,
    memoized (callers wanting the list-typed
    :data:`~repro.logic.cnf.Cnf` should copy with ``list(...)``)."""
    return ENGINE_CACHE.get_or_compute(
        "cnf",
        db,
        lambda: tuple(frozenset(lits) for lits in classical_clauses_for(db)),
    )


def priority_relation_for(db):
    """The PERF :class:`~repro.semantics.perf.PriorityRelation` of ``db``,
    memoized (its Floyd–Warshall closure is cubic in ``|V|``)."""

    def build():
        from ..semantics.perf import PriorityRelation

        return PriorityRelation(db)

    return ENGINE_CACHE.get_or_compute("priority_relation", db, build)


def minimal_models_for(db) -> Tuple:
    """``MM(DB)`` by explicit enumeration, memoized."""

    def build():
        from ..models.enumeration import minimal_models_brute

        return tuple(minimal_models_brute(db))

    return ENGINE_CACHE.get_or_compute("minimal_models", db, build)


def stratification_for(db):
    """The canonical :class:`~repro.semantics.stratification.Stratification`
    of ``db``, or ``None`` when it has a dependency cycle through
    negation — memoized.  The full dependency-graph/SCC pass is linear
    but was rebuilt on every ``is_stratified`` / ``require_stratification``
    call; the fragment analyzer, ICWA and the CLI all route through this
    single cached entry instead."""

    def build():
        from ..semantics.stratification import stratify

        return stratify(db)

    return ENGINE_CACHE.get_or_compute("stratification", db, build)


def fragment_profile_for(db):
    """The :class:`~repro.analysis.fragment.FragmentProfile` of ``db``,
    memoized (one linear clause pass plus two SCC passes per database,
    shared by the planner, the certifier and the CLI)."""

    def build():
        from ..analysis.fragment import FragmentAnalyzer

        return FragmentAnalyzer().analyze(db)

    return ENGINE_CACHE.get_or_compute("fragment_profile", db, build)


def query_plan_for(db, inner, method: str, planner=None):
    """The :class:`~repro.analysis.planner.QueryPlan` for one
    ``(database, semantics, entry point)`` triple, memoized per
    parameterization.

    Planning reads only the memoized fragment profile, but the cost
    table is rebuilt per candidate; sessions re-plan on *every* query,
    so this entry is what keeps the planned engine's overhead at one
    cache lookup on the repeated-query path (the BENCH_pr5
    ``stratified-tower`` regression was exactly this loop).  Passing an
    explicit non-default ``planner`` bypasses the cache — custom cost
    models see their own fresh plans.
    """

    def build():
        from ..analysis.fragment import fragment_profile
        from ..analysis.planner import FragmentPlanner

        chooser = planner if planner is not None else FragmentPlanner()
        return chooser.plan(fragment_profile(db), inner, method)

    if planner is not None:
        return build()
    key = (db, inner.name) + inner.cache_params() + (method,)
    return ENGINE_CACHE.get_or_compute("query_plan", key, build)
