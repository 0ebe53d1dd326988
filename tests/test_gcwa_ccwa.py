"""Tests for GCWA and CCWA."""

import pytest
from hypothesis import given

from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.semantics.gcwa import (
    augmented_database,
    free_for_negation,
    free_for_negation_brute,
)

from conftest import databases


class TestFreeForNegation:
    def test_classic_example(self):
        # a | b: neither atom is false in all minimal models.
        db = parse_database("a | b.")
        assert free_for_negation(db) == set()

    def test_unsupported_atom_is_free(self):
        db = parse_database("a. b :- c.")
        assert free_for_negation(db) == {"b", "c"}

    def test_inconsistent_db_frees_everything(self):
        db = parse_database("a. :- a.")
        assert free_for_negation(db) == {"a"}

    @given(databases())
    def test_matches_brute(self, db):
        assert free_for_negation(db) == free_for_negation_brute(db)

    def test_augmented_database_adds_denials(self):
        db = parse_database("a | b.")
        augmented = augmented_database(db, frozenset({"c"}))
        assert augmented.has_integrity_clauses


class TestGcwaDecisions:
    def test_gcwa_does_not_infer_exclusive_or(self):
        # The textbook separation from EGCWA: {a,b} is a GCWA model.
        db = parse_database("a | b.")
        gcwa = get_semantics("gcwa")
        assert not gcwa.infers(db, parse_formula("~a | ~b"))
        assert get_semantics("egcwa").infers(db, parse_formula("~a | ~b"))

    def test_gcwa_negative_literal(self):
        db = parse_database("a. b :- c.")
        gcwa = get_semantics("gcwa")
        assert gcwa.infers_literal(db, "not b")
        assert gcwa.infers_literal(db, "not c")
        assert not gcwa.infers_literal(db, "not a")

    def test_gcwa_positive_literal_is_minimal_entailment(self):
        db = parse_database("a | b. c :- a. c :- b.")
        assert get_semantics("gcwa").infers_literal(db, "c")

    def test_has_model_positive_always(self, simple_db):
        assert get_semantics("gcwa").has_model(simple_db)

    def test_has_model_tracks_consistency(self):
        assert not get_semantics("gcwa").has_model(
            parse_database("a. :- a.")
        )
        assert get_semantics("gcwa").has_model(
            parse_database("a | b. :- a, b.")
        )

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute_on_formulas(self, db):
        formula = parse_formula("~a | (b & ~c)")
        oracle = get_semantics("gcwa").infers(db, formula)
        brute = get_semantics("gcwa", engine="brute").infers(db, formula)
        assert oracle == brute

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute_on_literals(self, db):
        for literal in ("not a", "b"):
            oracle = get_semantics("gcwa").infers_literal(db, literal)
            brute = get_semantics("gcwa", engine="brute").infers_literal(
                db, literal
            )
            assert oracle == brute

    def test_minimal_models_are_gcwa_models(self, simple_db):
        gcwa_models = get_semantics("gcwa").model_set(simple_db)
        egcwa_models = get_semantics("egcwa").model_set(simple_db)
        assert egcwa_models <= gcwa_models


class TestCcwa:
    def test_q_z_empty_reduces_to_gcwa(self, simple_db):
        ccwa = get_semantics("ccwa")  # default partition P = V
        gcwa = get_semantics("gcwa")
        assert ccwa.model_set(simple_db) == gcwa.model_set(simple_db)

    def test_fixed_atoms_are_protected(self):
        db = parse_database("a :- q.")
        # q in Q (fixed): q is not negated even though no minimal model
        # (with q varying) would keep it; with q fixed both values occur.
        ccwa = get_semantics("ccwa", p=["a"], z=[])
        free = ccwa.free_atoms(db)
        assert "q" not in free
        assert "a" not in free  # a true in the minimal model with q true

    def test_floating_atoms_do_not_block_negation(self):
        db = parse_database("a | z.")
        ccwa = get_semantics("ccwa", p=["a"], z=["z"])
        # Minimizing a with z floating: model {z} beats {a}, so a is
        # false in all (P;Z)-minimal models.
        assert ccwa.free_atoms(db) == {"a"}
        assert ccwa.infers_literal(db, "not a")

    def test_ccwa_literal_in_p(self):
        db = parse_database("a | b. c :- a.")
        ccwa = get_semantics("ccwa", p=["c"], z=["a"])
        assert not ccwa.infers_literal(db, "not c")

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute(self, db):
        atoms = sorted(db.vocabulary)
        p, z = atoms[:3], atoms[4:5]
        q_formula = parse_formula("~a | b")
        oracle = get_semantics("ccwa", p=p, z=z).infers(db, q_formula)
        brute = get_semantics("ccwa", p=p, z=z, engine="brute").infers(
            db, q_formula
        )
        assert oracle == brute

    def test_partition_validation(self, simple_db):
        from repro.errors import PartitionError

        with pytest.raises(PartitionError):
            get_semantics("ccwa", p=["a", "zz"]).model_set(simple_db)
