"""Tests for repro.logic.cnf (naive CNF and Tseitin)."""

import itertools

from hypothesis import given

from repro.logic.atoms import Literal
from repro.logic.cnf import (
    cnf_atoms,
    database_to_cnf,
    formula_to_cnf_naive,
    tseitin,
)
from repro.logic.formula import And, Not, Or, Var
from repro.logic.parser import parse_database

from test_formula import formulas


def _cnf_evaluate(cnf, model) -> bool:
    return all(
        any((l.atom in model) == l.positive for l in clause)
        for clause in cnf
    )


class TestNaiveCnf:
    @given(formulas())
    def test_equivalent_to_input(self, formula):
        cnf = formula_to_cnf_naive(formula)
        atoms = sorted(formula.atoms())
        for bits in itertools.product([False, True], repeat=len(atoms)):
            model = {a for a, bit in zip(atoms, bits) if bit}
            assert _cnf_evaluate(cnf, model) == formula.evaluate(model)

    def test_valid_formula_gives_empty_cnf(self):
        assert formula_to_cnf_naive(Or(Var("a"), Not(Var("a")))) == []

    def test_unsat_formula_gives_empty_clause(self):
        cnf = formula_to_cnf_naive(And(Var("a"), Not(Var("a"))))
        assert frozenset() in cnf or not _cnf_evaluate(cnf, {"a"})


class TestTseitin:
    @given(formulas())
    def test_equisatisfiable_and_projection_preserving(self, formula):
        """Models of clauses + root projected onto the original atoms are
        exactly the models of the formula."""
        clauses, root, aux = tseitin(formula)
        original = sorted(formula.atoms())
        all_atoms = sorted(set(original) | aux | {root.atom})
        projections = set()
        for bits in itertools.product([False, True], repeat=len(all_atoms)):
            model = {a for a, bit in zip(all_atoms, bits) if bit}
            root_true = (root.atom in model) == root.positive
            if _cnf_evaluate(clauses, model) and root_true:
                projections.add(frozenset(model & set(original)))
        expected = set()
        for bits in itertools.product([False, True], repeat=len(original)):
            model = frozenset(
                a for a, bit in zip(original, bits) if bit
            )
            if formula.evaluate(model):
                expected.add(model)
        assert projections == expected

    @given(formulas())
    def test_negated_root_gives_complement(self, formula):
        clauses, root, aux = tseitin(formula)
        original = sorted(formula.atoms())
        all_atoms = sorted(set(original) | aux | {root.atom})
        projections = set()
        for bits in itertools.product([False, True], repeat=len(all_atoms)):
            model = {a for a, bit in zip(all_atoms, bits) if bit}
            root_false = (root.atom in model) != root.positive
            if _cnf_evaluate(clauses, model) and root_false:
                projections.add(frozenset(model & set(original)))
        for model in projections:
            assert not formula.evaluate(model)

    def test_avoid_prevents_collisions(self):
        formula = And(Var("p"), Var("q"))
        _clauses, _root, aux = tseitin(formula, avoid=["__ts0", "__ts1"])
        assert not (aux & {"__ts0", "__ts1"})

    def test_linear_size(self):
        # Tseitin must not blow up the (a1&b1)|(a2&b2)|... pattern that
        # kills naive distribution.
        parts = [And(Var(f"a{i}"), Var(f"b{i}")) for i in range(12)]
        clauses, _root, _aux = tseitin(Or(*parts))
        assert len(clauses) < 100


class TestDatabaseCnf:
    def test_database_to_cnf_matches_models(self):
        db = parse_database("a | b. c :- a, not d.")
        cnf = database_to_cnf(db)
        atoms = sorted(db.vocabulary)
        for bits in itertools.product([False, True], repeat=len(atoms)):
            model = {a for a, bit in zip(atoms, bits) if bit}
            assert _cnf_evaluate(cnf, model) == db.is_model(model)

    def test_cnf_atoms(self):
        cnf = [frozenset({Literal("a"), Literal("b", False)})]
        assert cnf_atoms(cnf) == {"a", "b"}
