"""Tests for repro.models.enumeration (the brute-force ground truth).

The preference orders ``pz_preferred`` / ``lex_preferred`` live in the
definition-literal test reference (``reference_models.py``), which
``test_kernel.py`` checks the enumerators against; their own unit tests
stay here beside the enumerators that realize them.
"""

from repro.logic.interpretation import Interpretation
from repro.logic.parser import parse_database, parse_formula
from repro.models.enumeration import (
    all_models,
    minimal_models_brute,
    models_entail_brute,
    pz_minimal_models_brute,
    prioritized_minimal_models_brute,
)

from reference_models import lex_preferred, pz_preferred


class TestAllModels:
    def test_counts(self, simple_db):
        assert len(all_models(simple_db)) == 4

    def test_inconsistent(self):
        assert all_models(parse_database("a. :- a.")) == []

    def test_empty_db_has_all_interpretations(self):
        db = parse_database("").with_vocabulary(["a", "b"])
        assert len(all_models(db)) == 4


class TestMinimalModels:
    def test_minimal_models(self, simple_db):
        assert {frozenset(m) for m in minimal_models_brute(simple_db)} == {
            frozenset({"b"}), frozenset({"a", "c"})
        }

    def test_minimal_models_are_incomparable(self, simple_db):
        minimal = minimal_models_brute(simple_db)
        for m in minimal:
            for n in minimal:
                assert not (m < n)


class TestPzOrdering:
    def test_pz_preferred_requires_same_q(self):
        p, q = frozenset({"a"}), frozenset({"q"})
        assert not pz_preferred(
            Interpretation({"q"}), Interpretation({"a"}), p, q
        )
        assert pz_preferred(
            Interpretation({"q"}), Interpretation({"a", "q"}), p, q
        )

    def test_pz_minimal_with_floating(self):
        db = parse_database("a | z.")
        models = pz_minimal_models_brute(db, {"a"}, {"z"})
        assert {frozenset(m) for m in models} == {frozenset({"z"})}

    def test_pz_reduces_to_mm_when_p_is_everything(self, simple_db):
        assert set(
            pz_minimal_models_brute(
                simple_db, simple_db.vocabulary, set()
            )
        ) == set(minimal_models_brute(simple_db))


class TestLexOrdering:
    def test_lex_preferred_level_order(self):
        levels = [frozenset({"a"}), frozenset({"b"})]
        assert lex_preferred(
            Interpretation({"b"}), Interpretation({"a"}), levels, frozenset()
        )
        assert not lex_preferred(
            Interpretation({"a"}), Interpretation({"b"}), levels, frozenset()
        )

    def test_prioritized_minimal(self):
        db = parse_database("a | b.")
        models = prioritized_minimal_models_brute(db, [{"a"}, {"b"}])
        assert {frozenset(m) for m in models} == {frozenset({"b"})}

    def test_single_level_is_pz(self, simple_db):
        assert set(
            prioritized_minimal_models_brute(
                simple_db, [simple_db.vocabulary]
            )
        ) == set(minimal_models_brute(simple_db))


def test_models_entail_brute_empty_set_entails_everything():
    assert models_entail_brute([], parse_formula("false"))
    assert not models_entail_brute(
        [Interpretation()], parse_formula("a")
    )
