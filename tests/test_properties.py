"""Property-based invariants over generated databases and queries.

Three families, each quantified over hypothesis-generated inputs rather
than hand-picked cases:

* **lattice monotonicity** — the inference-strength ordering
  ``classical ⊆ DDR ⊆ {GCWA, PWS} ⊆ EGCWA`` holds for *random* query
  formulas, not just a fixed query list;
* **idempotence / cache coherence** — re-querying a semantics (directly,
  through the memoizing ``cached`` engine, and through a fresh
  :class:`~repro.session.DatabaseSession`) returns the identical model
  set and verdicts;
* **decomposition product law** — the minimal models of a database
  assembled from components over disjoint vocabularies are exactly the
  per-component minimal models combined by union.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.logic.database import DisjunctiveDatabase
from repro.models.enumeration import minimal_models_brute
from repro.sat.decompose import product_interpretations
from repro.sat.solver import entails_classically
from repro.semantics import get_semantics
from repro.session import DatabaseSession
from repro.workloads import random_query_formula

from conftest import ATOMS, clauses, databases, positive_databases

#: Generated query formulas over the shared atom pool (a seed-indexed
#: view of the deterministic workload generator, so failures shrink to a
#: reproducible seed).
queries = st.integers(min_value=0, max_value=10**6).map(
    lambda seed: random_query_formula(ATOMS, depth=2, seed=seed)
)


# ----------------------------------------------------------------------
# Lattice monotonicity on generated queries
# ----------------------------------------------------------------------
@given(positive_databases(max_clauses=4), queries)
def test_inference_strength_is_monotone(db, query):
    """Smaller selected model set => more cautious consequences, for
    random queries: classical ⊆ DDR ⊆ GCWA ⊆ EGCWA and DDR ⊆ PWS ⊆
    EGCWA."""
    ddr = get_semantics("ddr")
    gcwa = get_semantics("gcwa")
    pws = get_semantics("pws")
    egcwa = get_semantics("egcwa")
    if entails_classically(db, query):
        assert ddr.infers(db, query)
    if ddr.infers(db, query):
        assert gcwa.infers(db, query)
        assert pws.infers(db, query)
    if gcwa.infers(db, query):
        assert egcwa.infers(db, query)
    if pws.infers(db, query):
        assert egcwa.infers(db, query)


@given(positive_databases(max_clauses=4), queries)
def test_model_set_inclusion_implies_inference_inclusion(db, query):
    """The semantic justification of the previous test, checked
    directly: if S selects a subset of T's models, every T-consequence
    is an S-consequence."""
    pairs = [("egcwa", "gcwa"), ("gcwa", "ddr"), ("pws", "ddr")]
    for stronger, weaker in pairs:
        s = get_semantics(stronger)
        w = get_semantics(weaker)
        assert s.model_set(db) <= w.model_set(db)
        if w.infers(db, query):
            assert s.infers(db, query), (stronger, weaker)


# ----------------------------------------------------------------------
# Idempotence / cache coherence
# ----------------------------------------------------------------------
#: Semantics defined on arbitrary (negation + IC) databases.
GENERAL_SEMANTICS = ("gcwa", "ccwa", "egcwa", "ecwa", "dsm")


@given(databases(max_clauses=4))
def test_model_set_requery_is_idempotent(db):
    """Asking the same engine twice returns the identical frozenset."""
    for name in GENERAL_SEMANTICS:
        semantics = get_semantics(name)
        assert semantics.model_set(db) == semantics.model_set(db), name


@given(databases(max_clauses=4))
def test_cached_engine_is_coherent_with_oracle(db):
    """The memoizing engine's answer — first (miss) and second (hit)
    query alike — equals the uncached oracle answer."""
    for name in GENERAL_SEMANTICS:
        oracle = get_semantics(name, engine="oracle")
        cached = get_semantics(name, engine="cached")
        expected = oracle.model_set(db)
        assert cached.model_set(db) == expected, name  # may miss
        assert cached.model_set(db) == expected, name  # must hit


@given(databases(max_clauses=4), queries)
def test_session_requery_is_idempotent(db, query):
    """Two sessions over equal databases, and repeated queries within
    one session, agree verdict-for-verdict (cache coherence at the
    session layer)."""
    first = DatabaseSession(db, engine="cached")
    second = DatabaseSession(db, engine="cached")
    verdict = first.ask(query).verdict
    assert first.ask(query).verdict == verdict
    assert second.ask(query).verdict == verdict


# ----------------------------------------------------------------------
# Decomposition product law
# ----------------------------------------------------------------------
LEFT_ATOMS = ["a", "b", "c"]
RIGHT_ATOMS = ["x", "y", "z"]


@st.composite
def disjoint_union_dbs(draw):
    """A database assembled from two clause sets over disjoint atom
    pools, returned with its two component databases."""
    left = [
        draw(clauses(atoms=LEFT_ATOMS, allow_neg=False, allow_ic=False))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    right = [
        draw(clauses(atoms=RIGHT_ATOMS, allow_neg=False, allow_ic=False))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    union = DisjunctiveDatabase(left + right, LEFT_ATOMS + RIGHT_ATOMS)
    return (
        union,
        DisjunctiveDatabase(left, LEFT_ATOMS),
        DisjunctiveDatabase(right, RIGHT_ATOMS),
    )


@given(disjoint_union_dbs())
def test_minimal_models_obey_product_law(dbs):
    """MM(DB₁ ⊎ DB₂) = {M₁ ∪ M₂ : Mᵢ ∈ MM(DBᵢ)} for disjoint
    vocabularies — the identity the component decomposition engine
    relies on."""
    union, left, right = dbs
    expected = {
        frozenset(m)
        for m in product_interpretations(
            [minimal_models_brute(left), minimal_models_brute(right)]
        )
    }
    assert {frozenset(m) for m in minimal_models_brute(union)} == expected


@given(disjoint_union_dbs())
def test_product_law_holds_through_the_semantics(dbs):
    """The same law observed through EGCWA (= MM) on every engine that
    may or may not decompose internally."""
    union, left, right = dbs
    expected = {
        frozenset(m)
        for m in product_interpretations(
            [
                get_semantics("egcwa", engine="brute").model_set(left),
                get_semantics("egcwa", engine="brute").model_set(right),
            ]
        )
    }
    for engine in ("brute", "oracle", "cached"):
        observed = {
            frozenset(m)
            for m in get_semantics("egcwa", engine=engine).model_set(union)
        }
        assert observed == expected, engine
