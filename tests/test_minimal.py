"""Tests for the minimal-model machinery (repro.sat.minimal)."""

import pytest
from hypothesis import given

from repro.logic.formula import Var
from repro.logic.parser import parse_database, parse_formula
from repro.models.enumeration import (
    minimal_models_brute,
    prioritized_minimal_models_brute,
    pz_minimal_models_brute,
)
from repro.sat.minimal import (
    MinimalModelSolver,
    find_minimal_model,
    is_minimal_model,
    minimal_models,
)

from conftest import databases


class TestMinimalModels:
    def test_simple_db(self, simple_db):
        assert {frozenset(m) for m in minimal_models(simple_db)} == {
            frozenset({"b"}),
            frozenset({"a", "c"}),
        }

    def test_inconsistent_db_has_none(self):
        db = parse_database("a. :- a.")
        assert minimal_models(db) == []
        assert find_minimal_model(db) is None

    def test_find_minimal_is_minimal(self, simple_db):
        model = find_minimal_model(simple_db)
        assert is_minimal_model(simple_db, model)

    def test_is_minimal_rejects_non_models(self, simple_db):
        assert not is_minimal_model(simple_db, {"a"})  # not even a model

    def test_is_minimal_rejects_supersets(self, simple_db):
        assert not is_minimal_model(simple_db, {"a", "b", "c"})

    def test_max_models_cap(self):
        db = parse_database("a | b. c | d.")
        assert len(minimal_models(db, max_models=3)) == 3

    def test_empty_model_unique_minimal(self):
        db = parse_database("a :- b.")
        assert [set(m) for m in minimal_models(db)] == [set()]

    @given(databases())
    def test_matches_brute_force(self, db):
        fast = {frozenset(m) for m in minimal_models(db)}
        slow = {frozenset(m) for m in minimal_models_brute(db)}
        assert fast == slow

    @given(databases())
    def test_shrink_reaches_minimal(self, db):
        from repro.models.enumeration import all_models

        engine = MinimalModelSolver(db)
        for model in all_models(db)[:4]:
            shrunk = engine.shrink(model)
            assert shrunk <= model
            assert engine.is_minimal(shrunk)


class TestFindMinimalSatisfying:
    def test_finds_witness(self, simple_db):
        engine = MinimalModelSolver(simple_db)
        witness = engine.find_minimal_satisfying(Var("c"))
        assert witness == {"a", "c"}

    def test_none_when_no_minimal_witness(self, simple_db):
        engine = MinimalModelSolver(simple_db)
        # b & c never holds in a minimal model ({b} and {a,c} are all).
        assert engine.find_minimal_satisfying(
            parse_formula("b & c")
        ) is None

    def test_condition_with_helper_atoms(self, simple_db):
        engine = MinimalModelSolver(simple_db)
        # 'helper' is outside the universe; existentially quantified.
        witness = engine.find_minimal_satisfying(
            parse_formula("helper & (helper -> b)")
        )
        assert witness == {"b"}

    @given(databases())
    def test_entails_matches_brute(self, db):
        formula = parse_formula("a | ~b")
        fast = MinimalModelSolver(db).entails(formula)
        slow = all(
            m.satisfies(formula) for m in minimal_models_brute(db)
        )
        assert fast == slow


class TestPZMinimal:
    def test_floating_atoms_do_not_matter(self):
        # Minimize a, float z: minimal requires ~a; z free.
        db = parse_database("a | z.")
        solver = MinimalModelSolver(db, [{"a"}], z={"z"})
        models = {frozenset(m) for m in solver.iter_minimal_models()}
        assert models == {frozenset({"z"}), frozenset({"a", "z"})} or \
            models == {frozenset({"z"})}
        # Canonical answer via brute force:
        brute = {frozenset(m) for m in pz_minimal_models_brute(db, {"a"}, {"z"})}
        assert models == brute

    def test_fixed_atoms_partition_model_space(self):
        db = parse_database("a | q.")
        solver = MinimalModelSolver(db, [{"a"}], z=set())
        # q fixed: for q true, minimal has a false; for q false, a true.
        models = {frozenset(m) for m in solver.iter_minimal_models()}
        assert frozenset({"q"}) in models
        assert frozenset({"a"}) in models

    @given(databases())
    def test_matches_brute_force(self, db):
        atoms = sorted(db.vocabulary)
        p = set(atoms[::2])
        z = set(atoms[1::2][:1])
        fast = {
            frozenset(m)
            for m in MinimalModelSolver(db, [p], z).iter_minimal_models()
        }
        slow = {frozenset(m) for m in pz_minimal_models_brute(db, p, z)}
        assert fast == slow

    @given(databases())
    def test_pz_entails_matches_brute(self, db):
        atoms = sorted(db.vocabulary)
        p = set(atoms[:3])
        z = set(atoms[3:4])
        formula = parse_formula("~a | c")
        fast = MinimalModelSolver(db, [p], z).entails(formula)
        slow = all(
            m.satisfies(formula)
            for m in pz_minimal_models_brute(db, p, z)
        )
        assert fast == slow

    def test_is_minimal_depends_only_on_pq_projection(self):
        db = parse_database("a | z. q | a.")
        solver = MinimalModelSolver(db, [{"a"}], z={"z"})
        # {q} and {q, z} share the P∪Q projection {q}.
        assert solver.is_minimal({"q"}) == solver.is_minimal({"q", "z"})


class TestPrioritizedMinimal:
    def test_lexicographic_preference(self):
        # Minimize a before b: from models of a | b, prefer dropping a.
        db = parse_database("a | b.")
        solver = MinimalModelSolver(db, levels=[{"a"}, {"b"}])
        models = {frozenset(m) for m in [solver.shrink({"a"})]}
        assert models == {frozenset({"b"})}
        assert solver.is_minimal({"b"})
        assert not solver.is_minimal({"a"})

    def test_reversed_levels_flip_preference(self):
        db = parse_database("a | b.")
        solver = MinimalModelSolver(db, levels=[{"b"}, {"a"}])
        assert solver.is_minimal({"a"})
        assert not solver.is_minimal({"b"})

    def test_levels_must_not_overlap(self):
        db = parse_database("a | b.")
        with pytest.raises(Exception):
            MinimalModelSolver(db, levels=[{"a"}, {"a"}])

    @given(databases())
    def test_matches_brute_force(self, db):
        atoms = sorted(db.vocabulary)
        levels = [set(atoms[:2]), set(atoms[2:4])]
        z = set(atoms[4:5])
        solver = MinimalModelSolver(db, levels, z)
        brute = prioritized_minimal_models_brute(db, levels, z)
        for model in brute:
            assert solver.is_minimal(model)
        formula = parse_formula("~a | b")
        fast = solver.entails(formula)
        slow = all(m.satisfies(formula) for m in brute)
        assert fast == slow


def _dpll_minimal_models(db):
    """``MM(DB)`` by the reference DPLL alone: shrink each model the
    solver finds to a minimal one, then block its supersets."""
    from repro.logic.cnf import database_to_cnf
    from repro.sat.dpll import solve_dpll

    atoms = sorted(db.vocabulary)
    number = {atom: i + 1 for i, atom in enumerate(atoms)}
    theory = [
        [number[l.atom] if l.positive else -number[l.atom] for l in clause]
        for clause in database_to_cnf(db)
    ]
    found, blocks = [], []
    while True:
        model = solve_dpll(theory + blocks)
        if model is None:
            return found
        current = {a for a in atoms if number[a] in model}
        while current:  # shrink: a model strictly below `current`
            below = solve_dpll(
                theory
                + [[-number[a]] for a in atoms if a not in current]
                + [[-number[a] for a in sorted(current)]]
            )
            if below is None:
                break
            current = {a for a in atoms if number[a] in below}
        found.append(frozenset(current))
        if not current:
            return found
        blocks.append([-number[a] for a in sorted(current)])


class TestDpllEngineParity:
    """Minimal models computed by the reference DPLL alone agree with
    the CDCL-backed minimal-model machinery end to end."""

    def test_minimal_models_same_under_both_engines(self, simple_db):
        cdcl = {frozenset(m) for m in minimal_models(simple_db)}
        assert cdcl == set(_dpll_minimal_models(simple_db))

    def test_entailment_same_under_both_engines(self, simple_db):
        formula = parse_formula("~a | ~b")
        dpll = all(
            formula.evaluate(m) for m in _dpll_minimal_models(simple_db)
        )
        assert MinimalModelSolver(simple_db).entails(formula) == dpll

    @given(databases(max_clauses=3))
    def test_random_parity(self, db):
        cdcl = {frozenset(m) for m in minimal_models(db)}
        assert cdcl == set(_dpll_minimal_models(db))
