"""Tests for the Disjunctive Stable Model semantics."""

from hypothesis import given

from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.semantics.dsm import is_stable_model, is_stable_model_brute
from repro.workloads import win_move_cycle

from conftest import databases, positive_databases


class TestStableCheck:
    def test_positive_db_stable_equals_minimal(self, simple_db):
        assert is_stable_model(simple_db, frozenset({"b"}))
        assert is_stable_model(simple_db, frozenset({"a", "c"}))
        assert not is_stable_model(simple_db, frozenset({"a", "b", "c"}))

    def test_unsupported_negation(self):
        db = parse_database("a :- not a.")
        # No stable model: {} fails (reduct derives a), {a} fails
        # (reduct empty, {} smaller... reduct for {a} deletes the clause,
        # so minimal model is {} != {a}).
        assert not is_stable_model(db, frozenset())
        assert not is_stable_model(db, frozenset({"a"}))

    def test_even_loop_has_two_stable_models(self, unstratified_db):
        assert is_stable_model(unstratified_db, frozenset({"a"}))
        assert is_stable_model(unstratified_db, frozenset({"b"}))
        assert not is_stable_model(unstratified_db, frozenset({"a", "b"}))

    @given(databases(max_clauses=4))
    def test_fast_check_matches_brute(self, db):
        from repro.logic.interpretation import all_interpretations

        for model in all_interpretations(db.vocabulary):
            assert is_stable_model(db, model) == is_stable_model_brute(
                db, model
            )


class TestDsmSemantics:
    def test_model_sets(self, unstratified_db):
        models = get_semantics("dsm").model_set(unstratified_db)
        assert {frozenset(m) for m in models} == {
            frozenset({"a"}), frozenset({"b"})
        }

    def test_win_move_cycles(self):
        # Odd cycle: no stable model; even cycle: two.
        assert not get_semantics("dsm").has_model(win_move_cycle(3))
        assert len(get_semantics("dsm").model_set(win_move_cycle(2))) == 2

    def test_stratified_db_has_unique_stable_model_per_perfect(self):
        db = parse_database("a :- not b.")
        models = get_semantics("dsm").model_set(db)
        assert {frozenset(m) for m in models} == {frozenset({"a"})}

    def test_inference_is_brave_free_cautious(self, unstratified_db):
        dsm = get_semantics("dsm")
        assert dsm.infers(unstratified_db, parse_formula("a | b"))
        assert not dsm.infers_literal(unstratified_db, "a")

    def test_no_stable_models_entails_everything(self):
        db = parse_database("a :- not a.")
        assert get_semantics("dsm").infers(db, parse_formula("false"))

    def test_has_model_positive_trivial(self, simple_db):
        assert get_semantics("dsm").has_model(simple_db)

    @given(positive_databases(max_clauses=4))
    def test_positive_dsm_is_minimal_models(self, db):
        """Paper: if DB is positive then DSM(DB) = MM(DB)."""
        from repro.models.enumeration import minimal_models_brute

        assert get_semantics("dsm").model_set(db) == frozenset(
            minimal_models_brute(db)
        )

    @given(databases(max_clauses=4))
    def test_stable_models_are_minimal_models(self, db):
        """Paper: DSM(DB) ⊆ MM(DB)."""
        from repro.models.enumeration import minimal_models_brute

        minimal = frozenset(minimal_models_brute(db))
        assert get_semantics("dsm").model_set(db) <= minimal

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute(self, db):
        formula = parse_formula("a | ~b")
        assert get_semantics("dsm").infers(db, formula) == get_semantics(
            "dsm", engine="brute"
        ).infers(db, formula)
        assert get_semantics("dsm").has_model(db) == get_semantics(
            "dsm", engine="brute"
        ).has_model(db)

    def test_perf_subset_of_dsm_on_stratified(self, stratified_db):
        """For stratified databases perfect models are stable."""
        perf = get_semantics("perf").model_set(stratified_db)
        dsm = get_semantics("dsm").model_set(stratified_db)
        assert perf <= dsm
