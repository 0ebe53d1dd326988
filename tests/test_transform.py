"""Tests for repro.logic.transform."""

import pytest
from hypothesis import given

from repro.logic.clause import Clause
from repro.logic.formula import FALSE3, TRUE3, UNDEF3
from repro.logic.interpretation import (
    ThreeValuedInterpretation,
    all_interpretations,
)
from repro.logic.parser import parse_database
from repro.logic.transform import (
    gl_reduct,
    rename_atoms,
    shift_negation_to_head,
    split_count,
    split_programs,
    three_valued_reduct,
)

from conftest import databases


class TestGlReduct:
    def test_clause_with_true_negation_dropped(self):
        db = parse_database("a :- not b. c :- not d.")
        reduct = gl_reduct(db, {"b"})
        assert Clause.fact("c") in reduct.clauses
        assert all("a" not in c.head for c in reduct.clauses)

    def test_negative_literals_stripped(self):
        db = parse_database("a :- b, not c.")
        reduct = gl_reduct(db, set())
        assert Clause.rule(["a"], ["b"]) in reduct.clauses

    def test_reduct_is_positive(self):
        db = parse_database("a | b :- c, not d. :- not a.")
        for model in all_interpretations(db.vocabulary):
            assert not gl_reduct(db, model).has_negation

    def test_positive_db_is_fixed_point(self, simple_db):
        assert gl_reduct(simple_db, {"a"}).clauses == simple_db.clauses

    def test_vocabulary_preserved(self):
        db = parse_database("a :- not b.")
        assert gl_reduct(db, {"b"}).vocabulary == {"a", "b"}


class TestShiftNegation:
    def test_shift_moves_negation_to_head(self):
        db = parse_database("a :- b, not c.")
        shifted = shift_negation_to_head(db)
        assert Clause.rule(["a", "c"], ["b"]) in shifted.clauses

    @given(databases())
    def test_classical_models_unchanged(self, db):
        shifted = shift_negation_to_head(db)
        for model in all_interpretations(db.vocabulary):
            assert db.is_model(model) == shifted.is_model(model)

    @given(databases())
    def test_result_is_negation_free(self, db):
        assert not shift_negation_to_head(db).has_negation


class TestSplitPrograms:
    def test_split_count_formula(self):
        db = parse_database("a | b. c | d | e :- a.")
        assert split_count(db) == 3 * 7

    def test_split_count_matches_enumeration(self):
        db = parse_database("a | b. c :- a. :- b, c.")
        assert split_count(db) == len(list(split_programs(db)))

    def test_splits_are_nondisjunctive(self):
        db = parse_database("a | b. c | d :- a.")
        for split in split_programs(db):
            assert split.is_normal_nondisjunctive

    def test_splits_keep_integrity_clauses(self):
        db = parse_database("a | b. :- a, b.")
        for split in split_programs(db):
            assert Clause.integrity(["a", "b"]) in split.clauses

    def test_split_models_are_models_of_original(self):
        db = parse_database("a | b. c :- a.")
        for split in split_programs(db):
            for model in all_interpretations(db.vocabulary):
                if split.is_model(model):
                    assert db.is_model(model)


class TestThreeValuedReduct:
    def test_bounds_from_negative_body(self):
        db = parse_database("a :- b, not c.")
        fully_false = ThreeValuedInterpretation(set(), set())
        (clause,) = three_valued_reduct(db, fully_false)
        assert clause.bound == TRUE3  # not c has value 1 - 0 = 1

        c_undef = ThreeValuedInterpretation(set(), {"c"})
        (clause,) = three_valued_reduct(db, c_undef)
        assert clause.bound == UNDEF3

        c_true = ThreeValuedInterpretation({"c"}, {"c"})
        (clause,) = three_valued_reduct(db, c_true)
        assert clause.bound == FALSE3

    def test_valued_clause_satisfaction(self):
        db = parse_database("a :- b, not c.")
        i = ThreeValuedInterpretation({"b"}, {"a", "b"})  # a=1/2, b=1, c=0
        (clause,) = three_valued_reduct(db, i)
        # body value = min(1, 1) = 1 but head a has value 1/2.
        assert not clause.satisfied_by(i)
        j = ThreeValuedInterpretation({"a", "b"}, {"a", "b"})
        assert clause.satisfied_by(j)

    def test_total_reduct_matches_gl_reduct(self):
        """On total interpretations the 3-valued reduct's satisfaction
        coincides with classical satisfaction of the GL reduct."""
        db = parse_database("a | b :- c, not d. e :- not a. :- a, e.")
        for model in all_interpretations(db.vocabulary):
            total = ThreeValuedInterpretation.total(model)
            reduct3 = three_valued_reduct(db, total)
            reduct2 = gl_reduct(db, model)
            assert all(
                c.satisfied_by(total) for c in reduct3
            ) == reduct2.is_model(model)


class TestRenameAtoms:
    def test_mapping_rename(self):
        db = parse_database("a :- b.")
        renamed = rename_atoms(db, {"a": "x"})
        assert Clause.rule(["x"], ["b"]) in renamed.clauses

    def test_callable_rename(self):
        db = parse_database("a :- b.")
        renamed = rename_atoms(db, lambda atom: atom + "_1")
        assert renamed.vocabulary == {"a_1", "b_1"}

    def test_non_injective_rejected(self):
        db = parse_database("a :- b.")
        with pytest.raises(ValueError):
            rename_atoms(db, {"a": "b"})

    def test_models_transport(self):
        db = parse_database("a | b. c :- a.")
        renamed = rename_atoms(db, lambda atom: atom + "x")
        for model in all_interpretations(db.vocabulary):
            image = {a + "x" for a in model}
            assert db.is_model(model) == renamed.is_model(image)
