"""Tests for the extension modules: WFS, Reiter's CWA, and the
disjunctive state / closure objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NotPositiveError
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.semantics.cwa import (
    cwa_consistent_linear,
    cwa_consistent_theta,
    cwa_free_atoms,
)
from repro.semantics.state import (
    disjunctive_state,
    egcwa_closure_clauses,
    gcwa_closure_literals,
    state_atoms,
    wgcwa_closure_literals,
)
from repro.semantics.wfs import well_founded_model

from conftest import databases, positive_databases


# ----------------------------------------------------------------------
# Well-Founded Semantics
# ----------------------------------------------------------------------
@st.composite
def normal_programs(draw):
    """Random normal logic programs (single heads, no ICs)."""
    from repro.logic.clause import Clause
    from repro.logic.database import DisjunctiveDatabase

    atoms = ["a", "b", "c", "d"]
    count = draw(st.integers(1, 5))
    clauses = []
    for _ in range(count):
        head = draw(st.sampled_from(atoms))
        rest = [x for x in atoms if x != head]
        body_pos = draw(st.lists(st.sampled_from(rest), max_size=2,
                                 unique=True))
        body_neg = draw(st.lists(st.sampled_from(rest), max_size=1,
                                 unique=True))
        clauses.append(Clause.rule([head], body_pos, body_neg))
    return DisjunctiveDatabase(clauses, atoms)


class TestWellFounded:
    def test_even_loop_all_undefined(self, unstratified_db):
        model = well_founded_model(unstratified_db)
        assert model.undefined == {"a", "b"}

    def test_odd_loop_undefined(self):
        model = well_founded_model(parse_database("a :- not a."))
        assert model.undefined == {"a"}

    def test_stratified_program_is_total(self):
        model = well_founded_model(parse_database("a :- not b. c :- a."))
        assert model.is_total
        assert model.true == {"a", "c"}

    def test_definite_program_least_model(self):
        model = well_founded_model(parse_database("a. b :- a. c :- d."))
        assert model.true == {"a", "b"}
        assert model.is_total

    def test_rejects_disjunctive(self, simple_db):
        with pytest.raises(NotPositiveError):
            well_founded_model(simple_db)

    def test_rejects_integrity_clauses(self):
        with pytest.raises(NotPositiveError):
            well_founded_model(parse_database("a. :- a."))

    @given(normal_programs())
    def test_wfs_is_a_partial_stable_model(self, db):
        """Przymusinski: the well-founded model of an NLP is partial
        stable (PDSM extends WFS)."""
        from repro.semantics.pdsm import is_partial_stable

        assert is_partial_stable(db, well_founded_model(db))

    @given(normal_programs())
    def test_total_wfs_is_the_unique_stable_model(self, db):
        model = well_founded_model(db)
        if model.is_total:
            stable = get_semantics("dsm").model_set(db)
            assert stable == frozenset({model.to_total()})

    @given(normal_programs())
    def test_wfs_true_atoms_hold_in_every_stable_model(self, db):
        model = well_founded_model(db)
        for stable in get_semantics("dsm").model_set(db):
            assert model.true <= stable
            assert stable <= model.possible


# ----------------------------------------------------------------------
# Reiter's CWA
# ----------------------------------------------------------------------
class TestCwa:
    def test_disjunctive_inconsistency(self):
        """The paper's Section 3.1 motivation, as code."""
        db = parse_database("a | b.")
        assert cwa_free_atoms(db) == {"a", "b"}
        consistent, _ = cwa_consistent_linear(db)
        assert not consistent
        assert not get_semantics("cwa").has_model(db)

    def test_horn_databases_are_safe(self):
        db = parse_database("a. b :- a. c :- d.")
        assert cwa_free_atoms(db) == {"c", "d"}
        consistent, calls = cwa_consistent_linear(db)
        assert consistent
        assert calls == len(db.vocabulary) + 1

    def test_closure_models(self):
        db = parse_database("a. b :- c.")
        models = get_semantics("cwa").model_set(db)
        assert {frozenset(m) for m in models} == {frozenset({"a"})}

    def test_cwa_inference(self):
        db = parse_database("a. b :- c.")
        cwa = get_semantics("cwa")
        assert cwa.infers(db, parse_formula("a & ~b & ~c"))

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute(self, db):
        oracle = get_semantics("cwa").model_set(db)
        brute = get_semantics("cwa", engine="brute").model_set(db)
        assert oracle == brute

    @given(databases(max_clauses=4))
    def test_theta_matches_linear(self, db):
        linear, _ = cwa_consistent_linear(db)
        theta = cwa_consistent_theta(db)
        assert theta.consistent == linear
        assert theta.np_calls <= theta.call_bound

    def test_theta_call_count_is_logarithmic(self):
        from repro.workloads import exclusive_pairs

        db = exclusive_pairs(4)  # 8 atoms
        theta = cwa_consistent_theta(db)
        assert not theta.consistent  # all 8 atoms free, closure kills a|b
        assert theta.free_count == 8
        assert theta.np_calls <= theta.call_bound < 8


# ----------------------------------------------------------------------
# Disjunctive state and closure objects
# ----------------------------------------------------------------------
class TestDisjunctiveState:
    def test_simple_state(self, simple_db):
        state = disjunctive_state(simple_db)
        assert frozenset({"a", "b"}) in state
        # resolving c :- a with a|b derives c|b.
        assert frozenset({"b", "c"}) in state

    def test_state_atoms_match_horn_relaxation(self, simple_db):
        from repro.semantics.ddr import possibly_true_atoms

        full = disjunctive_state(simple_db, minimized=False)
        assert state_atoms(full) == possibly_true_atoms(simple_db)

    @given(positive_databases(max_clauses=4))
    def test_unminimized_state_atoms_match_relaxation(self, db):
        """Ross & Topor's full T-up-omega has exactly the possibly-true
        atoms (the Horn-relaxation fixpoint DDR uses)."""
        from repro.semantics.ddr import possibly_true_atoms

        full = disjunctive_state(db, minimized=False)
        assert state_atoms(full) == possibly_true_atoms(db)

    def test_minimized_vs_full_state_differ(self):
        """{a. a|b.}: a|b is derivable but not minimal — the weak
        closure (DDR) keeps b possible, GCWA negates it."""
        db = parse_database("a. a | b.")
        assert state_atoms(disjunctive_state(db, minimized=False)) == {
            "a", "b"
        }
        assert state_atoms(disjunctive_state(db, minimized=True)) == {"a"}

    @given(positive_databases(max_clauses=4))
    def test_minker_theorem(self, db):
        """Minker's theorem: for positive IC-free DDBs, an atom is in
        some minimal derivable disjunction iff it is in some minimal
        model — proof theory agrees with the Sigma2 model theory."""
        from repro.semantics.state import minimal_state_atoms

        assert minimal_state_atoms(db) == \
            frozenset(db.vocabulary) - gcwa_closure_literals(db)

    @given(positive_databases(max_clauses=4))
    def test_state_disjunctions_are_entailed(self, db):
        from repro.models.enumeration import all_models

        models = all_models(db)
        for disjunction in disjunctive_state(db):
            assert all(m & disjunction for m in models)

    def test_wgcwa_closure_matches_ddr(self, simple_db):
        from repro.semantics import get_semantics

        assert wgcwa_closure_literals(simple_db) == get_semantics(
            "ddr"
        ).negated_atoms(simple_db)

    @given(positive_databases(max_clauses=4))
    def test_wgcwa_closure_matches_ddr_random(self, db):
        from repro.semantics import get_semantics

        assert wgcwa_closure_literals(db) == get_semantics(
            "ddr"
        ).negated_atoms(db)

    def test_rejects_negation(self, unstratified_db):
        with pytest.raises(NotPositiveError):
            disjunctive_state(unstratified_db)

    def test_max_width_truncates(self):
        db = parse_database("a | b | c.")
        assert disjunctive_state(db, max_width=2) == frozenset()


class TestClosures:
    def test_egcwa_closure_on_exclusive_pair(self):
        db = parse_database("a | b.")
        closure = egcwa_closure_clauses(db)
        # Minimal models {a}, {b}: a ∧ b false in both.
        assert frozenset({"a", "b"}) in closure

    def test_size_one_closure_matches_gcwa(self):
        db = parse_database("a | b. c :- d.")
        closure = egcwa_closure_clauses(db)
        singletons = {next(iter(c)) for c in closure if len(c) == 1}
        assert singletons == gcwa_closure_literals(db)

    @given(positive_databases(max_clauses=3))
    def test_closure_preserves_minimal_models(self, db):
        """Augmenting DB with its EGCWA closure keeps MM unchanged."""
        from repro.logic.clause import Clause
        from repro.models.enumeration import minimal_models_brute

        closure = egcwa_closure_clauses(db, max_size=2)
        augmented = db.with_clauses(
            Clause.integrity(sorted(body)) for body in closure
        )
        assert set(minimal_models_brute(db)) == set(
            minimal_models_brute(augmented)
        )


# ----------------------------------------------------------------------
# Brave inference
# ----------------------------------------------------------------------
class TestBraveInference:
    def test_brave_vs_cautious(self, simple_db):
        egcwa = get_semantics("egcwa")
        a = parse_formula("a")
        assert egcwa.infers_brave(simple_db, a)
        assert not egcwa.infers(simple_db, a)

    def test_brave_false_when_nowhere(self, simple_db):
        egcwa = get_semantics("egcwa")
        assert not egcwa.infers_brave(simple_db, parse_formula("b & c"))

    @given(databases(max_clauses=4))
    def test_egcwa_brave_matches_brute(self, db):
        formula = parse_formula("a | ~b")
        assert get_semantics("egcwa").infers_brave(db, formula) == \
            get_semantics("egcwa", engine="brute").infers_brave(db, formula)

    @given(databases(max_clauses=4))
    def test_dsm_brave_matches_brute(self, db):
        formula = parse_formula("a & ~b")
        assert get_semantics("dsm").infers_brave(db, formula) == \
            get_semantics("dsm", engine="brute").infers_brave(db, formula)

    @given(databases(max_clauses=3))
    def test_pdsm_brave_matches_brute(self, db):
        formula = parse_formula("a")
        assert get_semantics("pdsm").infers_brave(db, formula) == \
            get_semantics("pdsm", engine="brute").infers_brave(db, formula)

    def test_dsm_brave_on_even_loop(self, unstratified_db):
        dsm = get_semantics("dsm")
        assert dsm.infers_brave(unstratified_db, parse_formula("a"))
        assert dsm.infers_brave(unstratified_db, parse_formula("b"))
        assert not dsm.infers_brave(unstratified_db, parse_formula("a & b"))
