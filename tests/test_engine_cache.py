"""Correctness tests for the memoizing evaluation engine.

Covers the cache-key discipline (structural sharing, partition
separation), the LRU eviction bound, the exactness of the hit/miss
accounting, and the no-poison guarantee under budget trips and faults.
"""

from __future__ import annotations

import pytest

from repro.engine import CachedSemantics, EngineCache
from repro.engine.cache import ENGINE_CACHE
from repro.errors import ReproError
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics


def fresh_cached(name: str, cache: EngineCache, **kwargs) -> CachedSemantics:
    """A cached semantics bound to a private cache (test isolation)."""
    return CachedSemantics(
        get_semantics(name, engine="oracle", **kwargs), cache=cache
    )


# ----------------------------------------------------------------------
# Key discipline
# ----------------------------------------------------------------------
class TestCacheKeys:
    def test_structurally_equal_databases_share_entries(self):
        cache = EngineCache()
        semantics = fresh_cached("egcwa", cache)
        db1 = parse_database("a | b. c :- a.")
        db2 = parse_database("c :- a.  a | b.")  # same clauses, reordered
        assert db1 == db2 and db1 is not db2
        models = semantics.model_set(db1)
        assert semantics.model_set(db2) is models  # the identical object
        stats = cache.stats()
        assert stats["misses_by_kind"]["model_set"] == 1
        assert stats["hits_by_kind"]["model_set"] == 1

    def test_distinct_databases_do_not_share(self):
        cache = EngineCache()
        semantics = fresh_cached("egcwa", cache)
        semantics.model_set(parse_database("a | b."))
        semantics.model_set(parse_database("a | b. c."))
        assert cache.stats()["misses_by_kind"]["model_set"] == 2
        assert cache.stats()["hits_by_kind"].get("model_set", 0) == 0

    def test_vocabulary_distinguishes_databases(self):
        """Same clauses over a wider vocabulary is a different database
        (models range over the vocabulary) — and a different cache key."""
        cache = EngineCache()
        semantics = fresh_cached("egcwa", cache)
        narrow = parse_database("a | b.")
        wide = narrow.with_vocabulary(["d"])
        assert semantics.model_set(narrow) != semantics.model_set(wide) or (
            cache.stats()["misses_by_kind"]["model_set"] == 2
        )
        assert cache.stats()["misses_by_kind"]["model_set"] == 2

    @pytest.mark.parametrize("name", ["ccwa", "ecwa"])
    def test_distinct_partitions_never_collide(self, name):
        """Different (P;Z) partitions get distinct entries with distinct
        (and correct) results for the same database."""
        cache = EngineCache()
        db = parse_database("a | b. c :- a.", )
        default = fresh_cached(name, cache)
        partitioned = fresh_cached(name, cache, p=["a", "b"], z=["c"])
        first = default.model_set(db)
        second = partitioned.model_set(db)
        stats = cache.stats()
        assert stats["misses_by_kind"]["model_set"] == 2
        assert stats["hits_by_kind"].get("model_set", 0) == 0
        # Both agree with their uncached counterparts.
        assert first == get_semantics(name).model_set(db)
        assert second == get_semantics(
            name, p=["a", "b"], z=["c"]
        ).model_set(db)
        # And repeated queries hit their own entries.
        assert default.model_set(db) is first
        assert partitioned.model_set(db) is second
        assert cache.stats()["hits_by_kind"]["model_set"] == 2

    def test_semantics_name_is_part_of_the_key(self):
        cache = EngineCache()
        db = parse_database("a | b. c :- a.")
        gcwa = fresh_cached("gcwa", cache)
        egcwa = fresh_cached("egcwa", cache)
        assert gcwa.model_set(db) != egcwa.model_set(db)
        assert cache.stats()["misses_by_kind"]["model_set"] == 2

    def test_queries_key_on_the_formula(self):
        cache = EngineCache()
        semantics = fresh_cached("egcwa", cache)
        db = parse_database("a | b.")
        assert semantics.infers(db, parse_formula("a | b"))
        assert not semantics.infers(db, parse_formula("a & b"))
        assert cache.stats()["misses_by_kind"]["infers"] == 2

    def test_validation_still_raises_on_hits(self):
        """Cached PERF still rejects databases with integrity clauses."""
        cache = EngineCache()
        semantics = fresh_cached("perf", cache)
        bad = parse_database("a. :- a, b.")
        for _ in range(2):
            with pytest.raises(ReproError):
                semantics.has_model(bad)

    def test_direct_cached_construction_is_rejected(self):
        with pytest.raises(ReproError):
            get_semantics("egcwa", engine="bogus")
        with pytest.raises(ReproError):
            from repro.semantics import Egcwa

            Egcwa(engine="cached")


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_bound_is_respected(self):
        cache = EngineCache(maxsize=4)
        for i in range(10):
            cache.get_or_compute("k", i, lambda i=i: i * i)
        assert len(cache) == 4
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["evictions"] == 6
        # Oldest entries are gone, newest retained.
        for i in range(6):
            with pytest.raises(KeyError):
                cache.peek("k", i)
        for i in range(6, 10):
            assert cache.peek("k", i) == i * i

    def test_lru_order_refreshes_on_hit(self):
        cache = EngineCache(maxsize=2)
        cache.get_or_compute("k", "a", lambda: 1)
        cache.get_or_compute("k", "b", lambda: 2)
        cache.get_or_compute("k", "a", lambda: 1)  # refresh "a"
        cache.get_or_compute("k", "c", lambda: 3)  # evicts "b", not "a"
        assert cache.peek("k", "a") == 1
        assert cache.peek("k", "c") == 3
        with pytest.raises(KeyError):
            cache.peek("k", "b")

    def test_configure_shrinks_and_evicts(self):
        cache = EngineCache(maxsize=8)
        for i in range(8):
            cache.get_or_compute("k", i, lambda i=i: i)
        cache.configure(3)
        assert len(cache) == 3 and cache.stats()["evictions"] == 5
        cache.configure(0)  # disables caching entirely
        assert len(cache) == 0
        assert cache.get_or_compute("k", "x", lambda: 42) == 42
        assert len(cache) == 0

    def test_clear_resets_entries_and_counters(self):
        cache = EngineCache()
        cache.get_or_compute("k", 1, lambda: 1)
        cache.get_or_compute("k", 1, lambda: 1)
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == stats["hits"] == stats["misses"] == 0


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
class TestCounters:
    def test_scripted_access_pattern(self):
        """Counters match a fully scripted sequence exactly."""
        cache = EngineCache(maxsize=3)
        script = [
            ("a", 1),  # miss           -> [a]
            ("a", 1),  # hit            -> [a]
            ("b", 2),  # miss           -> [a, b]
            ("a", 1),  # hit, refreshes -> [b, a]
            ("c", 3),  # miss, full     -> [b, a, c]
            ("d", 4),  # miss, evicts b -> [a, c, d]
            ("b", 2),  # miss, evicts a -> [c, d, b]
            ("a", 1),  # miss, evicts c -> [d, b, a]
        ]
        for key, value in script:
            assert cache.get_or_compute("k", key, lambda v=value: v) == value
        stats = cache.stats()
        assert stats["misses"] == 6
        assert stats["hits"] == 2
        assert stats["evictions"] == 3
        assert stats["hit_rate"] == pytest.approx(2 / 8)
        assert stats["entries"] == 3

    def test_session_level_hit_counting(self):
        """A cached session answers the second identical query from the
        cache and spends zero NP-oracle calls on it."""
        from repro.session import DatabaseSession

        ENGINE_CACHE.clear()
        db = parse_database("a | b. c :- a.")
        session = DatabaseSession(db, engine="cached", certificates=False)
        first = session.ask("~a | ~b", semantics="egcwa")
        second = session.ask("~a | ~b", semantics="egcwa")
        assert first.verdict is second.verdict is True
        assert second.sat_calls == 0
        assert session.cache_stats()["hits_by_kind"]["infers"] >= 1

    def test_stats_shape_matches_satsolver_style(self):
        stats = EngineCache().stats()
        for field in ("entries", "maxsize", "hits", "misses",
                      "evictions", "hit_rate", "entries_by_kind",
                      "hits_by_kind", "misses_by_kind",
                      "evictions_by_kind"):
            assert field in stats


# ----------------------------------------------------------------------
# No poisoned entries
# ----------------------------------------------------------------------
class TestNoPoisonOnCancellation:
    """A computation cut off by a budget trip or an injected fault must
    never leave a (partial or wrong) entry behind in the cache."""

    def test_budget_exceeded_builder_stores_nothing(self):
        from repro.runtime import Budget, BudgetExceeded, budget_scope

        cache = EngineCache(maxsize=16)
        cached = fresh_cached("gcwa", cache)
        db = parse_database("a | b. c :- a.")
        query = parse_formula("~a | ~b")
        with budget_scope(Budget(max_sat_calls=1)):
            with pytest.raises(BudgetExceeded):
                cached.infers(db, query)
        assert cache.stats()["entries"] == 0
        # The next, ungoverned call computes the real answer and caches
        # it; the earlier cancellation cost exactly one extra miss.
        expected = get_semantics("gcwa").infers(db, query)
        assert cached.infers(db, query) == expected
        assert cache.stats()["entries"] == 1
        assert cache.stats()["misses"] == 2
        assert cached.infers(db, query) == expected  # now a hit
        assert cache.stats()["hits"] == 1

    def test_injected_fault_stores_nothing(self):
        from repro.runtime import FaultInjected, FaultPlan, fault_plan

        cache = EngineCache(maxsize=16)
        cached = fresh_cached("egcwa", cache)
        db = parse_database("a | b.")
        query = parse_formula("~a | ~b")
        with fault_plan(FaultPlan(seed=0, sat_fault_rate=1.0)):
            with pytest.raises(FaultInjected):
                cached.infers(db, query)
        assert cache.stats()["entries"] == 0
        assert cached.infers(db, query) is True
        assert cache.peek("infers", cached._key(db, query)) is True

    def test_resilient_over_cached_caches_only_real_answers(self):
        """The resilient engine retrying a cached inner engine: faulted
        attempts never populate the cache, the eventual success does."""
        from repro.engine.resilient import ResilientSemantics, RetryPolicy
        from repro.runtime import FaultPlan, fault_plan

        cache = EngineCache(maxsize=16)
        cached = fresh_cached("egcwa", cache)
        resilient = ResilientSemantics(
            cached, retry=RetryPolicy(max_retries=3, backoff_ms=0)
        )
        db = parse_database("a | b. c :- a.")
        query = parse_formula("~a | ~b")
        with fault_plan(
            FaultPlan(seed=1, sat_fault_rate=1.0, max_sat_faults=2)
        ):
            outcome = resilient.run("infers", db, query)
        assert outcome.value is True
        assert outcome.faults == 2
        assert cache.stats()["entries"] == 1  # only the clean attempt
        assert cache.peek("infers", cached._key(db, query)) is True
