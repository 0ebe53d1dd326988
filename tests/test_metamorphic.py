"""Metamorphic contracts of the adversarial mutation catalogue.

Every metamorphic mutator in :mod:`repro.adversary.mutators` documents a
*preservation contract*: the set of semantics under which the mutant's
answers (to queries over the original vocabulary, carried through the
mutation's ``query_map``) must equal the original's.  This suite is the
contract's enforcement:

* hypothesis-driven preservation properties, one test per mutator, on
  the cheap two-engine pair (brute ground truth + fragment-planned) by
  default and across **all four** differential engines in the ``slow``
  variants;
* intended-fragment tests for every boundary mutator: the mutant must
  land *just across* the documented lattice edge per
  :mod:`repro.analysis.fragment`.

A failing preservation property here means either a mutator's contract
overclaims (fix the catalogue) or an engine is genuinely wrong on one of
the two databases (a divergence the hunter would also flag) — both are
bugs worth a red build.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.mutators import (
    MUTATORS_BY_NAME,
    applicable_semantics,
    boundary_mutators,
    boundary_target_met,
    fresh_atom,
    metamorphic_mutators,
    rename_formula,
)
from repro.analysis import fragment_of
from repro.analysis.fragment import fragment_profile
from repro.engine import DIFFERENTIAL_ENGINES
from repro.logic.atoms import Literal
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.workloads import random_horn_db, random_query_formula

from conftest import databases, positive_databases

#: Cheap engine pair for the default (tier-1) property run: the brute
#: enumerator is ground truth, the planned engine exercises the most
#: dispatch logic per query.
FAST_ENGINES = ("brute", "planned")

#: PDSM's brute path enumerates 3^|V| partial interpretations; skip it
#: when a mutation widened the vocabulary past this.
_PDSM_ATOM_CEILING = 7


def _contract_semantics(db, mutation):
    """The semantics the contract promises AND both sides support."""
    names = [
        n for n in mutation.preserves
        if n in applicable_semantics(db)
        and n in applicable_semantics(mutation.db)
    ]
    if len(mutation.db.vocabulary) > _PDSM_ATOM_CEILING:
        names = [n for n in names if n != "pdsm"]
    return names


def assert_preservation(db, mutation, engines=FAST_ENGINES, seed=0):
    """Assert the mutation's documented contract on ``db``."""
    vocabulary = sorted(db.vocabulary)
    query = random_query_formula(vocabulary, depth=2, seed=seed)
    atom = vocabulary[seed % len(vocabulary)]
    literals = [Literal.pos(atom), Literal.neg(atom)]
    for name in _contract_semantics(db, mutation):
        for engine in engines:
            instance = get_semantics(name, engine=engine)
            tag = (mutation.mutator, name, engine)
            assert instance.infers(db, query) == instance.infers(
                mutation.db, mutation.map_query(query)
            ), (tag, "infers", str(query))
            for literal in literals:
                mapped = Literal(
                    mutation.map_atom(literal.atom), literal.positive
                )
                assert instance.infers_literal(
                    db, literal
                ) == instance.infers_literal(mutation.db, mapped), (
                    tag, "infers_literal", str(literal),
                )
            assert instance.has_model(db) == instance.has_model(
                mutation.db
            ), (tag, "has_model")
            if mutation.preserves_model_set:
                assert instance.model_set(db) == instance.model_set(
                    mutation.db
                ), (tag, "model_set")


def _apply(name, db, seed=0):
    mutator = MUTATORS_BY_NAME[name]
    profile = fragment_profile(db)
    if not mutator.applicable(db, profile):
        return None
    return mutator.apply(db, random.Random(f"meta:{name}:{seed}"))


# ----------------------------------------------------------------------
# Per-mutator preservation properties (hypothesis, fast engine pair)
# ----------------------------------------------------------------------
@settings(max_examples=10)
@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_rename_preserves_all_semantics(db, seed):
    mutation = _apply("rename", db, seed)
    assert mutation is not None
    assert_preservation(db, mutation, seed=seed)


@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_reorder_roundtrip_is_identity(db, seed):
    mutation = _apply("reorder", db, seed)
    assert mutation is not None
    # The serialize -> shuffle -> re-parse round trip must reproduce the
    # database *structurally*, which implies its contract (identical
    # databases cannot answer differently); the answer path itself is
    # exercised by test_preservation_all_engines.
    assert mutation.db == db


@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_duplicate_insertion_collapses(db, seed):
    mutation = _apply("duplicate", db, seed)
    assert mutation is not None
    assert mutation.db == db


@settings(max_examples=10)
@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_tautology_pad_preserves_all_semantics(db, seed):
    mutation = _apply("tautology_pad", db, seed)
    assert mutation is not None
    assert len(mutation.db.vocabulary) == len(db.vocabulary) + 1
    assert_preservation(db, mutation, seed=seed)


@settings(max_examples=10)
@given(
    db=positive_databases(max_clauses=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_component_clone_preserves_answers(db, seed):
    trimmed = db.restricted_to_occurring_atoms()
    # Cloning doubles the vocabulary and the brute ground truth pays
    # 2^|V| (3^|V| for PDSM) per answer; keep the fast lane tiny and
    # leave larger clones to the slow all-engine sweep.
    if len(trimmed.vocabulary) > 3:
        return
    mutation = _apply("component_clone", trimmed, seed)
    if mutation is None:
        return
    assert_preservation(trimmed, mutation, seed=seed)


@settings(max_examples=10)
@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_head_shift_preserves_model_based_semantics(db, seed):
    mutation = _apply("head_shift", db, seed)
    if mutation is None:  # no negation to shift
        return
    assert not mutation.db.has_negation
    assert_preservation(db, mutation, seed=seed)


@settings(max_examples=10)
@given(db=databases(), seed=st.integers(min_value=0, max_value=10**6))
def test_body_split_preserves_answers(db, seed):
    mutation = _apply("body_split", db, seed)
    if mutation is None:  # no clause with a 2+ atom positive body
        return
    assert len(mutation.db.vocabulary) == len(db.vocabulary) + 1
    assert_preservation(db, mutation, seed=seed)


# ----------------------------------------------------------------------
# Slow variants: the same contracts across all four engines
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [m.name for m in metamorphic_mutators()]
)
def test_preservation_all_engines(name):
    for seed in range(8):
        db = random_horn_db(3, 4, seed=seed) if seed % 2 else (
            parse_database("a | b. c :- a. d :- b, not c. e :- c, d.")
        )
        mutation = _apply(name, db, seed)
        if mutation is None:
            continue
        assert_preservation(
            db, mutation, engines=DIFFERENTIAL_ENGINES, seed=seed
        )


# ----------------------------------------------------------------------
# Boundary mutators: intended-fragment tests
# ----------------------------------------------------------------------
def test_widen_head_lands_barely_non_horn():
    for seed in range(10):
        db = random_horn_db(4, 5, seed=seed)
        mutation = _apply("widen_head", db, seed)
        assert mutation is not None
        before, after = fragment_profile(db), fragment_profile(mutation.db)
        assert fragment_of(db) in ("definite", "horn")
        assert fragment_of(mutation.db) not in ("definite", "horn")
        assert not after.is_horn
        assert after.disjunctive_clauses == 1
        assert boundary_target_met("non-horn", before, after)


def test_close_head_cycle_lands_barely_non_hcf():
    db = parse_database("a | b. c :- a. c :- b.")
    mutation = _apply("close_head_cycle", db)
    assert mutation is not None
    before, after = fragment_profile(db), fragment_profile(mutation.db)
    assert before.head_cycle_free
    assert not after.head_cycle_free
    assert after.negation_free  # still the deductive regime
    assert boundary_target_met("non-hcf", before, after)


def test_break_stratification_lands_unstratified():
    db = parse_database("a | b. c :- a, not b.")
    mutation = _apply("break_stratification", db)
    assert mutation is not None
    before, after = fragment_profile(db), fragment_profile(mutation.db)
    assert before.is_stratified
    assert not after.is_stratified
    assert boundary_target_met("unstratified", before, after)
    # The loop is disjoint: the original clauses are untouched.
    assert db.clauses <= mutation.db.clauses


def test_every_boundary_mutator_has_a_target():
    for mutator in boundary_mutators():
        assert mutator.target is not None
        assert mutator.preserves == ()  # boundary mutators claim nothing


def test_every_metamorphic_mutator_documents_a_contract():
    for mutator in metamorphic_mutators():
        assert mutator.preserves, mutator.name
        assert mutator.target is None


# ----------------------------------------------------------------------
# Helpers used by the contracts
# ----------------------------------------------------------------------
def test_rename_formula_walks_every_connective():
    formula = parse_formula("(a & ~b) | (c -> (d <-> ~a))")
    renamed = rename_formula(formula, {"a": "x", "d": "y"})
    assert renamed == parse_formula("(x & ~b) | (c -> (y <-> ~x))")


def test_fresh_atom_avoids_vocabulary():
    db = parse_database("pad0. pad1 :- pad0.")
    assert fresh_atom(db, prefix="pad") == "pad2"
