"""Tests for the Perfect Models Semantics."""

import pytest
from hypothesis import given

from repro.errors import NotPositiveError
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import get_semantics
from repro.semantics.perf import (
    PriorityRelation,
    is_perfect,
    preferable,
    preferable_witness,
)
from repro.workloads import win_move_path

from conftest import databases, positive_databases


class TestPriorityRelation:
    def test_negative_body_has_higher_priority(self):
        db = parse_database("a :- not b.")
        priorities = PriorityRelation(db)
        assert priorities.lt("a", "b")
        assert not priorities.lt("b", "a")

    def test_positive_body_is_geq(self):
        db = parse_database("a :- b.")
        priorities = PriorityRelation(db)
        assert priorities.leq("a", "b")
        assert not priorities.lt("a", "b")

    def test_heads_share_priority(self):
        db = parse_database("a | b.")
        priorities = PriorityRelation(db)
        assert priorities.leq("a", "b") and priorities.leq("b", "a")

    def test_transitivity_with_strictness(self):
        db = parse_database("a :- b. b :- not c.")
        priorities = PriorityRelation(db)
        assert priorities.lt("a", "c")  # a <= b < c

    def test_priority_cycle_detection(self, unstratified_db):
        assert PriorityRelation(unstratified_db).has_priority_cycle()

    def test_no_cycle_for_stratified(self, stratified_db):
        assert not PriorityRelation(stratified_db).has_priority_cycle()

    def test_integrity_clauses_rejected(self):
        with pytest.raises(NotPositiveError):
            PriorityRelation(parse_database("a | b. :- a, b."))

    def test_higher_than(self):
        db = parse_database("a :- not b, not c.")
        priorities = PriorityRelation(db)
        assert priorities.higher_than("a") == {"b", "c"}


class TestPreference:
    def test_stratified_example(self):
        db = parse_database("a :- not b.")
        priorities = PriorityRelation(db)
        assert preferable(
            frozenset({"a"}), frozenset({"b"}), priorities
        )
        assert not preferable(
            frozenset({"b"}), frozenset({"a"}), priorities
        )

    def test_proper_submodels_are_preferable(self, simple_db):
        priorities = PriorityRelation(simple_db)
        assert preferable(
            frozenset({"b"}), frozenset({"b", "c"}), priorities
        )

    def test_witness_matches_brute_preference(self, stratified_db):
        from repro.models.enumeration import all_models

        priorities = PriorityRelation(stratified_db)
        models = all_models(stratified_db)
        for model in models:
            witness = preferable_witness(stratified_db, model, priorities)
            brute = any(preferable(n, model, priorities) for n in models)
            assert (witness is not None) == brute


class TestPerfectModels:
    def test_positive_db_perfect_equals_minimal(self, simple_db):
        from repro.models.enumeration import minimal_models_brute

        assert get_semantics("perf").model_set(simple_db) == frozenset(
            minimal_models_brute(simple_db)
        )

    def test_stratified_negation(self):
        db = parse_database("a :- not b.")
        models = get_semantics("perf").model_set(db)
        assert {frozenset(m) for m in models} == {frozenset({"a"})}

    def test_win_path_has_unique_perfect_model(self):
        db = win_move_path(4)
        models = get_semantics("perf").model_set(db)
        assert len(models) == 1
        (model,) = models
        # Alternating: win3 true (win4 has no move), win2 false, win1 true.
        assert model == {"win1", "win3"}

    def test_unstratified_loop_has_no_perfect_model(self, unstratified_db):
        assert get_semantics("perf").model_set(unstratified_db) == frozenset()
        assert not get_semantics("perf").has_model(unstratified_db)

    def test_is_perfect_rejects_non_models(self, simple_db):
        assert not is_perfect(simple_db, frozenset({"a"}))

    @given(databases(allow_ic=False, max_clauses=4))
    def test_oracle_matches_brute_model_sets(self, db):
        assert get_semantics("perf").model_set(db) == get_semantics(
            "perf", engine="brute"
        ).model_set(db)

    @given(databases(allow_ic=False, max_clauses=4))
    def test_oracle_matches_brute_inference(self, db):
        formula = parse_formula("a | ~b")
        assert get_semantics("perf").infers(db, formula) == get_semantics(
            "perf", engine="brute"
        ).infers(db, formula)

    @given(positive_databases(max_clauses=4))
    def test_perfect_models_are_minimal(self, db):
        from repro.sat.minimal import is_minimal_model

        for model in get_semantics("perf").model_set(db):
            assert is_minimal_model(db, model)

    def test_perf_equals_icwa_on_stratified(self, stratified_db):
        """The paper: ICWA captures PERF under stratified negation."""
        perf_models = get_semantics("perf").model_set(stratified_db)
        icwa_models = get_semantics("icwa").model_set(stratified_db)
        assert perf_models == icwa_models
