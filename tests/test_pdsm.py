"""Tests for the Partial Disjunctive Stable Model semantics."""

from hypothesis import given

from repro.logic.interpretation import ThreeValuedInterpretation
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.semantics.pdsm import (
    encode_degree,
    is_partial_stable,
    is_partial_stable_brute,
    satisfies_reduct,
)

from conftest import databases


def tvi(true, possible):
    return ThreeValuedInterpretation(true, possible)


class TestPartialStableCheck:
    def test_even_loop_well_founded_model(self, unstratified_db):
        """a :- not b / b :- not a has the all-undefined partial stable
        model plus the two total ones."""
        assert is_partial_stable(unstratified_db, tvi(set(), {"a", "b"}))
        assert is_partial_stable(unstratified_db, tvi({"a"}, {"a"}))
        assert is_partial_stable(unstratified_db, tvi({"b"}, {"b"}))
        assert not is_partial_stable(
            unstratified_db, tvi({"a", "b"}, {"a", "b"})
        )

    def test_odd_loop_has_only_undefined(self):
        db = parse_database("a :- not a.")
        assert is_partial_stable(db, tvi(set(), {"a"}))
        assert not is_partial_stable(db, tvi({"a"}, {"a"}))
        assert not is_partial_stable(db, tvi(set(), set()))

    def test_positive_partial_stable_are_total(self, simple_db):
        """On positive databases a strictly partial candidate is beaten
        by its own true-set; partial stable models are the minimal ones."""
        assert is_partial_stable(simple_db, tvi({"b"}, {"b"}))
        assert not is_partial_stable(simple_db, tvi(set(), {"a", "b", "c"}))

    @given(databases(max_clauses=3))
    def test_fast_check_matches_brute(self, db):
        from repro.logic.interpretation import all_three_valued

        small_vocab = sorted(db.vocabulary)[:4]
        if set(small_vocab) != set(db.vocabulary):
            return  # keep the 3^n enumeration small
        for interpretation in all_three_valued(db.vocabulary):
            assert is_partial_stable(db, interpretation) == \
                is_partial_stable_brute(db, interpretation)


class TestSemantics:
    def test_model_set_contains_well_founded_style_model(
        self, unstratified_db
    ):
        models = get_semantics("pdsm").model_set(unstratified_db)
        assert tvi(set(), {"a", "b"}) in models
        assert len(models) == 3

    def test_total_pdsm_equals_dsm(self, unstratified_db):
        pdsm_total = {
            m.to_total()
            for m in get_semantics("pdsm").model_set(unstratified_db)
            if m.is_total
        }
        dsm = set(get_semantics("dsm").model_set(unstratified_db))
        assert pdsm_total == dsm

    @given(databases(max_clauses=3))
    def test_total_pdsm_equals_dsm_random(self, db):
        pdsm_total = {
            m.to_total()
            for m in get_semantics("pdsm").model_set(db)
            if m.is_total
        }
        dsm = set(get_semantics("dsm").model_set(db))
        assert pdsm_total == dsm

    def test_inference_requires_degree_one(self, unstratified_db):
        pdsm = get_semantics("pdsm")
        # a | b has degree 1/2 in the all-undefined model.
        assert not pdsm.infers(unstratified_db, parse_formula("a | b"))
        # Under DSM (total models only) it IS inferred.
        assert get_semantics("dsm").infers(
            unstratified_db, parse_formula("a | b")
        )

    def test_pdsm_always_exists_for_normal_programs(self):
        # Normal (non-disjunctive) programs always have the well-founded
        # partial stable model.
        db = parse_database("a :- not a. b :- not c.")
        assert get_semantics("pdsm").has_model(db)

    def test_pdsm_may_not_exist_for_disjunctive(self):
        # A disjunctive program with no partial stable model:
        # w | w'. combined with constraints killing every candidate.
        db = parse_database("a | b. :- a. :- b.")
        assert not get_semantics("pdsm").has_model(db)

    @given(databases(max_clauses=3))
    def test_oracle_matches_brute(self, db):
        formula = parse_formula("a | ~b")
        assert get_semantics("pdsm").infers(db, formula) == get_semantics(
            "pdsm", engine="brute"
        ).infers(db, formula)

    @given(databases(max_clauses=3))
    def test_model_sets_match(self, db):
        assert get_semantics("pdsm").model_set(db) == get_semantics(
            "pdsm", engine="brute"
        ).model_set(db)


class TestEncoding:
    def test_encode_degree_one(self):
        formula = parse_formula("a & ~b")
        encoded = encode_degree(formula, at_least_half=False)
        # degree 1 iff t_a and b fully false (~p_b).
        assert encoded.evaluate({"t__a", "p__a"})
        assert not encoded.evaluate({"t__a", "p__a", "p__b"})

    def test_encode_degree_half(self):
        formula = parse_formula("a")
        encoded = encode_degree(formula, at_least_half=True)
        assert encoded.evaluate({"p__a"})
        assert not encoded.evaluate(set())

    def test_reduct_satisfaction_helper(self, unstratified_db):
        assert satisfies_reduct(unstratified_db, tvi(set(), {"a", "b"}))
        assert not satisfies_reduct(unstratified_db, tvi(set(), set()))
