"""Tests for repro.logic.clause."""

from hypothesis import given

from repro.logic.clause import Clause

from conftest import clauses


class TestClassification:
    def test_fact(self):
        clause = Clause.fact("a", "b")
        assert clause.is_fact and not clause.is_integrity

    def test_integrity(self):
        clause = Clause.integrity(["a"], ["b"])
        assert clause.is_integrity and not clause.is_positive

    def test_positive(self):
        assert Clause.rule(["a"], ["b"]).is_positive
        assert not Clause.rule(["a"], ["b"], ["c"]).is_positive

    def test_horn_vs_definite(self):
        assert Clause.rule(["a"], ["b"]).is_definite
        assert Clause.integrity(["b"]).is_horn
        assert not Clause.integrity(["b"]).is_definite
        assert not Clause.rule(["a", "b"]).is_horn

    def test_disjunctive(self):
        assert Clause.fact("a", "b").is_disjunctive
        assert not Clause.fact("a").is_disjunctive

    def test_atoms_union(self):
        clause = Clause.rule(["a"], ["b"], ["c"])
        assert clause.atoms == {"a", "b", "c"}

    def test_tautology_head_meets_positive_body(self):
        assert Clause.rule(["a"], ["a"]).is_tautology()
        assert not Clause.rule(["a"], [], ["a"]).is_tautology()


class TestSatisfaction:
    def test_fact_needs_some_head_atom(self):
        clause = Clause.fact("a", "b")
        assert clause.satisfied_by({"a"})
        assert clause.satisfied_by({"b", "c"})
        assert not clause.satisfied_by({"c"})

    def test_rule_fires_on_true_body(self):
        clause = Clause.rule(["h"], ["b"])
        assert not clause.satisfied_by({"b"})
        assert clause.satisfied_by({"b", "h"})
        assert clause.satisfied_by(set())  # body false

    def test_negative_body_blocks_firing(self):
        clause = Clause.rule(["h"], ["b"], ["c"])
        assert clause.satisfied_by({"b", "c"})  # not c is false
        assert not clause.satisfied_by({"b"})

    def test_integrity_clause_excludes_body(self):
        clause = Clause.integrity(["a", "b"])
        assert clause.satisfied_by({"a"})
        assert not clause.satisfied_by({"a", "b"})

    def test_empty_clause_is_unsatisfiable(self):
        assert not Clause().satisfied_by(set())
        assert not Clause().satisfied_by({"a"})

    @given(clauses())
    def test_classical_literals_agree_with_satisfaction(self, clause):
        """The classical-disjunction reading matches satisfied_by."""
        import itertools

        atoms = sorted(clause.atoms)
        for bits in itertools.product([False, True], repeat=len(atoms)):
            model = {a for a, bit in zip(atoms, bits) if bit}
            classical = any(
                (l.atom in model) == l.positive
                for l in clause.to_classical_literals()
            )
            assert classical == clause.satisfied_by(model)


class TestConstructionAndRendering:
    def test_duplicates_collapse(self):
        assert Clause.fact("a", "a") == Clause.fact("a")

    def test_equality_is_structural(self):
        assert Clause.rule(["a"], ["b"]) == Clause(
            frozenset(["a"]), frozenset(["b"])
        )

    def test_str_roundtrips_through_parser(self):
        from repro.logic.parser import parse_clause

        for clause in [
            Clause.fact("a", "b"),
            Clause.rule(["h"], ["b"], ["c"]),
            Clause.integrity(["a", "b"]),
            Clause.fact("a"),
        ]:
            assert parse_clause(str(clause)) == clause

    def test_ordering_is_total_on_strings(self):
        first, second = sorted([Clause.fact("b"), Clause.fact("a")])
        assert str(first) < str(second)

    def test_to_formula_matches_satisfaction(self):
        clause = Clause.rule(["h"], ["b"], ["c"])
        formula = clause.to_formula()
        for model in [set(), {"b"}, {"b", "h"}, {"b", "c"}, {"h"}]:
            assert formula.evaluate(model) == clause.satisfied_by(model)
