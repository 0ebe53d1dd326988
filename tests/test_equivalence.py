"""Tests for database equivalence under various semantics."""

from hypothesis import given

from repro.logic.parser import parse_database
from repro.logic.transform import shift_negation_to_head
from repro.semantics.equivalence import (
    classical_difference_witness,
    classically_equivalent,
    difference_witness_under,
    equivalent_under,
)

from conftest import databases


class TestClassicalEquivalence:
    def test_reordered_clauses(self):
        db1 = parse_database("a | b. c :- a.")
        db2 = parse_database("c :- a. a | b.")
        assert classically_equivalent(db1, db2)

    def test_different_databases(self):
        db1 = parse_database("a | b.")
        db2 = parse_database("a.")
        assert not classically_equivalent(db1, db2)
        witness = classical_difference_witness(db1, db2)
        assert witness is not None
        assert db1.is_model(witness) != db2.is_model(witness)

    def test_vocabulary_padding(self):
        db1 = parse_database("a.")
        db2 = parse_database("a.").with_vocabulary(["z"])
        # Over the union vocabulary both have models {a} and {a, z}.
        assert classically_equivalent(db1, db2)

    @given(databases(max_clauses=4))
    def test_shift_preserves_classical_models(self, db):
        assert classically_equivalent(db, shift_negation_to_head(db))

    @given(databases(max_clauses=4))
    def test_witness_is_sound(self, db):
        other = parse_database("a | b.").with_vocabulary(db.vocabulary | {"a", "b"})
        witness = classical_difference_witness(db, other)
        if witness is None:
            assert classically_equivalent(db, other)
        else:
            padded1 = db.with_vocabulary(other.vocabulary | db.vocabulary)
            padded2 = other.with_vocabulary(
                other.vocabulary | db.vocabulary
            )
            assert padded1.is_model(witness) != padded2.is_model(witness)


class TestSemanticEquivalence:
    def test_classical_but_not_stable(self):
        """Shifting negation preserves classical models but not stable
        models: a :- not b has the single stable model {a}, while the
        shifted a | b has two minimal (= stable) models."""
        db = parse_database("a :- not b.")
        shifted = shift_negation_to_head(db)
        assert classically_equivalent(db, shifted)
        assert not equivalent_under(db, shifted, "dsm")
        witness = difference_witness_under(db, shifted, "dsm")
        assert witness is not None
        model, side = witness
        assert model == {"b"} and side == 2

    def test_equivalent_under_egcwa(self):
        db1 = parse_database("a | b. a | b | c.")
        db2 = parse_database("a | b.").with_vocabulary(["c"])
        # The wider clause is subsumed: same models, same minimal models.
        assert equivalent_under(db1, db2, "egcwa")

    def test_gcwa_vs_egcwa_discriminate(self):
        """Two databases can be GCWA-equivalent but not EGCWA-equivalent
        is impossible (EGCWA refines GCWA's closure) — but the converse
        happens; here both directions agree, as a sanity check."""
        db1 = parse_database("a | b.")
        db2 = parse_database("a | b. a | b | c.").with_vocabulary(
            ["a", "b", "c"]
        )
        db1 = db1.with_vocabulary(["c"])
        assert equivalent_under(db1, db2, "gcwa")
        assert equivalent_under(db1, db2, "egcwa")

    @given(databases(allow_neg=False, max_clauses=3))
    def test_adding_entailed_clause_preserves_model_theoretic_semantics(
        self, db
    ):
        """Adding a clause that is already classically entailed (a head
        weakening of an existing clause) keeps the model sets of the
        *model-theoretic* semantics unchanged — GCWA/EGCWA depend only on
        M(DB)."""
        from repro.logic.clause import Clause

        atoms = sorted(db.vocabulary)
        existing = sorted(db.clauses)[0]
        weakened = Clause(
            existing.head | {atoms[0]},
            existing.body_pos - {atoms[0]},  # head atom leaves the body
            existing.body_neg,
        )
        if not (weakened.head & weakened.body_pos):
            extended = db.with_clauses([weakened])
            if classically_equivalent(db, extended):
                for name in ("gcwa", "egcwa"):
                    assert equivalent_under(db, extended, name), name

    def test_ddr_is_syntax_sensitive(self):
        """DDR/WGCWA is *proof-theoretic*: adding the entailed clause
        ``a | b`` to ``{a.}`` changes its closure (b becomes possibly
        true), although the classical models are unchanged.  GCWA, being
        model-theoretic, is unaffected — a known contrast between the
        weak and the generalized CWA."""
        db = parse_database("a.").with_vocabulary(["b"])
        extended = parse_database("a. a | b.")
        assert classically_equivalent(db, extended)
        assert equivalent_under(db, extended, "gcwa")
        assert not equivalent_under(db, extended, "ddr")

    def test_semantics_instance_accepted(self):
        from repro.semantics import get_semantics

        db = parse_database("a | b.")
        assert equivalent_under(db, db, get_semantics("egcwa"))
