"""Tests for repro.logic.formula."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.logic.formula import (
    BOTTOM,
    FALSE3,
    TOP,
    TRUE3,
    UNDEF3,
    And,
    Bottom,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
    conj,
    disj,
    lit,
    negation_normal_form,
)

ATOMS = ["a", "b", "c"]


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return TOP
        if choice == 1:
            return BOTTOM
        return Var(draw(st.sampled_from(ATOMS)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Not(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    if kind == 1:
        return And(left, right)
    if kind == 2:
        return Or(left, right)
    if kind == 3:
        return Implies(left, right)
    return Iff(left, right)


class TestEvaluation:
    def test_constants(self):
        assert TOP.evaluate(set()) and not BOTTOM.evaluate(set())

    def test_var(self):
        assert Var("a").evaluate({"a"})
        assert not Var("a").evaluate({"b"})

    def test_operators_build_expected_nodes(self):
        formula = (Var("a") & ~Var("b")) >> Var("c")
        assert isinstance(formula, Implies)
        assert formula.evaluate({"a", "c"})
        assert not formula.evaluate({"a"})

    def test_iff(self):
        formula = Var("a").iff(Var("b"))
        assert formula.evaluate(set()) and formula.evaluate({"a", "b"})
        assert not formula.evaluate({"a"})

    def test_empty_conj_disj(self):
        assert conj([]) is TOP
        assert disj([]) is BOTTOM

    def test_nary_flattening(self):
        formula = And(And(Var("a"), Var("b")), Var("c"))
        assert len(formula.operands) == 3

    def test_lit_helper(self):
        assert lit("a").evaluate({"a"})
        assert lit("a", positive=False).evaluate(set())


class TestThreeValued:
    def test_kleene_negation(self):
        valuation = {"a": UNDEF3}
        assert Not(Var("a")).evaluate3(valuation) == UNDEF3

    def test_kleene_and_or(self):
        valuation = {"a": TRUE3, "b": UNDEF3}
        assert And(Var("a"), Var("b")).evaluate3(valuation) == UNDEF3
        assert Or(Var("a"), Var("b")).evaluate3(valuation) == TRUE3

    def test_kleene_implication(self):
        valuation = {"a": UNDEF3, "b": FALSE3}
        assert Implies(Var("a"), Var("b")).evaluate3(valuation) == UNDEF3

    def test_missing_atom_is_false(self):
        assert Var("zz").evaluate3({}) == FALSE3

    @given(formulas())
    def test_three_valued_restricts_to_classical(self, formula):
        """On total valuations, evaluate3 coincides with evaluate."""
        atoms = sorted(formula.atoms())
        for bits in itertools.product([False, True], repeat=len(atoms)):
            model = {a for a, bit in zip(atoms, bits) if bit}
            valuation = {
                a: TRUE3 if a in model else FALSE3 for a in atoms
            }
            expected = TRUE3 if formula.evaluate(model) else FALSE3
            assert formula.evaluate3(valuation) == expected


class TestNNF:
    @given(formulas())
    def test_nnf_is_equivalent(self, formula):
        nnf = negation_normal_form(formula)
        atoms = sorted(formula.atoms() | nnf.atoms())
        for bits in itertools.product([False, True], repeat=len(atoms)):
            model = {a for a, bit in zip(atoms, bits) if bit}
            assert nnf.evaluate(model) == formula.evaluate(model)

    @given(formulas())
    def test_nnf_has_no_deep_negation(self, formula):
        def check(node) -> None:
            if isinstance(node, Not):
                assert isinstance(node.operand, Var)
            elif isinstance(node, (And, Or)):
                for op in node.operands:
                    check(op)
            else:
                assert isinstance(node, (Var, Top, Bottom))

        check(negation_normal_form(formula))


class TestStructure:
    def test_equality_is_structural(self):
        assert And(Var("a"), Var("b")) == And(Var("a"), Var("b"))
        assert And(Var("a"), Var("b")) != And(Var("b"), Var("a"))

    def test_hashable(self):
        assert len({Var("a"), Var("a"), Not(Var("a"))}) == 2

    def test_atoms(self):
        formula = Implies(Var("a"), Iff(Var("b"), Not(Var("c"))))
        assert formula.atoms() == {"a", "b", "c"}

    def test_str_parenthesises(self):
        formula = Or(And(Var("a"), Var("b")), Var("c"))
        assert str(formula) == "(a & b) | c"

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Var("a").name = "b"
