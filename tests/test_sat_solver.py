"""Tests for the symbolic SAT facade (repro.sat.solver) and enumeration."""

import itertools

import pytest
from hypothesis import given

from repro.errors import SolverError
from repro.logic.atoms import Literal
from repro.logic.parser import parse_database, parse_formula
from repro.sat.dpll import solve_dpll
from repro.sat.enumerate import count_models, iter_models
from repro.sat.solver import (
    SatSolver,
    database_is_consistent,
    entails_classically,
    find_model,
    formula_is_valid,
    is_satisfiable,
)

from conftest import databases
from test_formula import formulas


class TestSatSolverFacade:
    def test_add_clause_and_solve(self):
        solver = SatSolver()
        solver.add_clause([Literal("a"), Literal("b", False)])
        solver.add_unit(Literal("b"))
        assert solver.solve()
        assert solver.model() >= {"a", "b"}

    def test_unsat(self):
        solver = SatSolver()
        solver.add_unit(Literal("a"))
        solver.add_unit(Literal("a", False))
        assert not solver.solve()

    def test_model_before_solve_raises(self):
        with pytest.raises(SolverError):
            SatSolver().model()

    def test_model_restriction(self):
        solver = SatSolver()
        solver.add_unit(Literal("a"))
        solver.add_unit(Literal("b"))
        solver.solve()
        assert solver.model(restrict_to=["a"]) == {"a"}

    def test_assumptions(self):
        solver = SatSolver()
        solver.add_clause([Literal("a"), Literal("b")])
        assert solver.solve([Literal("a", False)])
        assert "b" in solver.model()

    def test_add_database_registers_vocabulary(self):
        db = parse_database("a | b.").with_vocabulary(["z"])
        solver = SatSolver()
        solver.add_database(db)
        assert solver.solve()
        assert "z" not in solver.model(restrict_to=db.vocabulary)

    def test_dpll_engine_agrees(self):
        """The facade's CDCL answer equals the reference DPLL's on the
        same integer clauses."""
        solver = SatSolver()
        solver.add_clause([Literal("a"), Literal("b")])
        solver.add_unit(Literal("a", False))
        assert solver.solve()
        assert solver.model() == {"b"}
        a, b = solver.variables.number("a"), solver.variables.number("b")
        assert solve_dpll([[a, b], [-a]]) == {b}

    @given(formulas())
    def test_add_formula_positive_and_negative(self, formula):
        atoms = sorted(formula.atoms())
        sat_positive = SatSolver()
        sat_positive.add_formula(formula, positive=True)
        sat_negative = SatSolver()
        sat_negative.add_formula(formula, positive=False)
        models = [
            {a for a, bit in zip(atoms, bits) if bit}
            for bits in itertools.product([False, True], repeat=len(atoms))
        ]
        has_model = any(formula.evaluate(m) for m in models)
        has_countermodel = any(not formula.evaluate(m) for m in models)
        assert sat_positive.solve() == has_model
        assert sat_negative.solve() == has_countermodel


class TestOneShotHelpers:
    def test_database_is_consistent(self):
        assert database_is_consistent(parse_database("a | b."))
        assert not database_is_consistent(parse_database("a. :- a."))

    def test_find_model_returns_model(self, simple_db):
        model = find_model(simple_db)
        assert model is not None and simple_db.is_model(model)

    def test_find_model_none_when_unsat(self):
        assert find_model(parse_database("a. :- a.")) is None

    def test_formula_is_valid(self):
        assert formula_is_valid(parse_formula("a | ~a"))
        assert not formula_is_valid(parse_formula("a"))

    def test_entails_classically(self, simple_db):
        assert entails_classically(simple_db, parse_formula("a | b"))
        assert entails_classically(simple_db, parse_formula("b | c"))
        assert not entails_classically(simple_db, parse_formula("a"))

    def test_is_satisfiable_both_engines(self):
        """CDCL (``is_satisfiable``) and the reference DPLL agree."""
        cnf = [frozenset({Literal("a")}), frozenset({Literal("a", False)})]
        assert not is_satisfiable(cnf)
        assert solve_dpll([[1], [-1]]) is None
        assert is_satisfiable(cnf[:1])
        assert solve_dpll([[1]]) == {1}


class TestEnumeration:
    def test_enumerates_all_models(self, simple_db):
        models = set(iter_models(simple_db))
        expected = {
            frozenset(m)
            for m in [{"b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}]
        }
        assert {frozenset(m) for m in models} == expected

    def test_count_models(self, simple_db):
        assert count_models(simple_db) == 4

    def test_max_models_cap(self, simple_db):
        assert len(list(iter_models(simple_db, max_models=2))) == 2

    def test_projection_collapses_duplicates(self, simple_db):
        projected = list(iter_models(simple_db, project=["a"]))
        assert len(projected) == 2  # a true / a false

    def test_formula_constraint(self, simple_db):
        models = list(
            iter_models(simple_db, formula=parse_formula("~c"))
        )
        assert [set(m) for m in models] == [{"b"}]

    def test_empty_projection_yields_single_model(self, simple_db):
        assert len(list(iter_models(simple_db, project=[]))) == 1

    @given(databases())
    def test_enumeration_matches_brute_force(self, db):
        from repro.models.enumeration import all_models

        enumerated = {frozenset(m) for m in iter_models(db)}
        brute = {frozenset(m) for m in all_models(db)}
        assert enumerated == brute
