"""The evaluation engine: memoization and resilient execution.

Layered between :mod:`repro.logic`/:mod:`repro.models` below and
:mod:`repro.semantics`/:mod:`repro.session` above:

* :mod:`repro.engine.cache` — the bounded process-wide LRU memo store
  (:data:`ENGINE_CACHE`) plus always-safe memoized helpers for pure
  derived objects (minimal-model sets, priority relations, CNF forms);
* :mod:`repro.engine.cached` — :class:`CachedSemantics`, the
  ``engine="cached"`` façade memoizing ``model_set`` / ``infers`` /
  ``infers_literal`` / ``infers_brave`` / ``has_model``;
* :mod:`repro.engine.resilient` — :class:`ResilientSemantics`, the
  ``engine="resilient"`` façade running any engine under a
  :class:`~repro.runtime.budget.Budget` with retry, fallback and
  structured-timeout degradation.

See ``docs/performance_guide.md`` for the cache-key and eviction design
and ``docs/robustness_guide.md`` for the budget and degradation model.
"""

from .cache import (
    DEFAULT_MAXSIZE,
    ENGINE_CACHE,
    EngineCache,
    cache_stats,
    classical_clauses_for,
    clear_cache,
    configure_cache,
    database_cnf_for,
    minimal_models_for,
    priority_relation_for,
)
from .cached import CachedSemantics
from .resilient import ResilientSemantics, RetryPolicy

#: Engine order of the differential stack.  The brute enumerator comes
#: first — it is the ground truth the others are judged against.
DIFFERENTIAL_ENGINES = ("brute", "oracle", "cached", "planned")


def differential_stack(name: str, engines=DIFFERENTIAL_ENGINES):
    """One semantics instance per differential engine, brute first.

    The canonical cross-checking stack shared by
    ``tests/test_differential.py`` and the adversarial hunter
    (:mod:`repro.adversary.hunter`): every answer the oracle-, cache-
    and planner-backed engines give is compared against the brute
    enumerator's.
    """
    from ..semantics import get_semantics  # deferred: avoids the
    # semantics -> engine import cycle at module-load time

    return tuple(get_semantics(name, engine=engine) for engine in engines)


__all__ = [
    "DIFFERENTIAL_ENGINES",
    "differential_stack",
    "DEFAULT_MAXSIZE",
    "ENGINE_CACHE",
    "EngineCache",
    "CachedSemantics",
    "ResilientSemantics",
    "RetryPolicy",
    "cache_stats",
    "classical_clauses_for",
    "clear_cache",
    "configure_cache",
    "database_cnf_for",
    "minimal_models_for",
    "priority_relation_for",
]
