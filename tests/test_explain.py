"""Tests for the explanations API (repro.semantics.explain)."""

import pytest
from hypothesis import given

from repro.errors import NotPositiveError, NotStratifiedError
from repro.logic.parser import parse_database, parse_formula
from repro.semantics import SEMANTICS, get_semantics
from repro.semantics.explain import (
    derivation_of,
    explain_closure_literal,
    explain_non_inference,
)
from repro.session import DatabaseSession
from repro.workloads import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
    random_stratified_db,
)

from conftest import databases, positive_databases

SEMANTICS_WITH_CERTIFICATES = [
    "egcwa", "gcwa", "ddr", "pws", "dsm", "perf", "pdsm",
]

#: Hand-written databases (disjunctive, normal, with an integrity clause,
#: non-tight) plus seeded ones from four regimes, so that every
#: registered semantics attaches certificates somewhere.
CERTIFICATE_CORPUS = [
    parse_database(text)
    for text in (
        "a | b. c :- a.",
        "a :- not b. b :- not a. c :- a.",
        "a | b. :- a, b. c :- b.",
        "p :- q. q :- p. r :- not p.",
    )
] + [
    generate(6, 6, seed=seed)
    for generate in (
        random_positive_db,
        random_deductive_db,
        random_stratified_db,
        random_normal_db,
    )
    for seed in range(5)
]


class TestCounterModels:
    def test_counter_model_for_egcwa(self, simple_db):
        certificate = explain_non_inference(
            simple_db, parse_formula("c"), "egcwa"
        )
        assert certificate is not None
        assert certificate.model == {"b"}
        assert certificate.check(simple_db)

    def test_none_when_inferred(self, simple_db):
        assert explain_non_inference(
            simple_db, parse_formula("a | b"), "egcwa"
        ) is None

    def test_pdsm_certificate_is_three_valued(self, unstratified_db):
        certificate = explain_non_inference(
            unstratified_db, parse_formula("a | b"), "pdsm"
        )
        assert certificate is not None
        assert certificate.model.undefined == {"a", "b"}
        assert certificate.check(unstratified_db)

    @pytest.mark.parametrize("name", SEMANTICS_WITH_CERTIFICATES)
    def test_certificates_check_out(self, name, simple_db, unstratified_db):
        db = simple_db if name in ("ddr", "pws") else simple_db
        formula = parse_formula("a")
        engine = get_semantics(name)
        certificate = explain_non_inference(db, formula, name)
        inferred = engine.infers(db, formula)
        assert (certificate is None) == inferred
        if certificate is not None:
            assert certificate.check(db)

    @given(databases(max_clauses=4))
    def test_certificate_agrees_with_engine_dsm(self, db):
        formula = parse_formula("a | ~b")
        certificate = explain_non_inference(db, formula, "dsm")
        assert (certificate is None) == get_semantics("dsm").infers(
            db, formula
        )
        if certificate is not None:
            assert certificate.check(db)

    @given(positive_databases(max_clauses=4))
    def test_certificate_agrees_with_engine_gcwa(self, db):
        formula = parse_formula("~a | b")
        certificate = explain_non_inference(db, formula, "gcwa")
        assert (certificate is None) == get_semantics("gcwa").infers(
            db, formula
        )
        if certificate is not None:
            assert certificate.check(db)

    def test_render_mentions_model(self, simple_db):
        certificate = explain_non_inference(
            simple_db, parse_formula("c"), "egcwa"
        )
        assert "{b}" in certificate.render()


@pytest.mark.parametrize("name", sorted(SEMANTICS))
def test_session_certificates_check(name):
    """Every certificate a session attaches to a negative cautious answer
    re-verifies against the database, for every registered semantics."""
    attached = 0
    for db in CERTIFICATE_CORPUS:
        session = DatabaseSession(db)
        first, *_, last = sorted(db.vocabulary)
        for query in (
            first,
            f"~{last}",
            f"{first} | ~{last}",
            f"{first} & {last}",
            f"~{first} | {last}",
        ):
            try:
                answer = session.ask(query, semantics=name)
            except (NotPositiveError, NotStratifiedError):
                continue  # the semantics is not defined on this database
            if answer.certificate is not None:
                assert answer.certificate.check(db) is True, (db, query)
                attached += 1
    assert attached


class TestDerivations:
    def test_direct_fact(self):
        db = parse_database("a | b.")
        derivation = derivation_of(db, "a")
        assert derivation is not None
        assert derivation.check(db)
        assert len(derivation.steps) == 1

    def test_chained_derivation(self):
        db = parse_database("a. b :- a. c :- b.")
        derivation = derivation_of(db, "c")
        assert derivation is not None
        assert [s.atom for s in derivation.steps] == ["a", "b", "c"]
        assert derivation.check(db)

    def test_underivable_atom(self):
        db = parse_database("a. b :- c.")
        assert derivation_of(db, "b") is None

    def test_example_31_derivation_of_c(self, example_31):
        """Example 3.1: c is possibly true via the (IC-ignoring) fixpoint."""
        derivation = derivation_of(example_31, "c")
        assert derivation is not None
        assert derivation.check(example_31)

    def test_rejects_negation(self, unstratified_db):
        with pytest.raises(NotPositiveError):
            derivation_of(unstratified_db, "a")

    @given(positive_databases(max_clauses=4))
    def test_derivations_cover_exactly_possibly_true(self, db):
        from repro.semantics.ddr import possibly_true_atoms

        possible = possibly_true_atoms(db)
        for atom in sorted(db.vocabulary):
            derivation = derivation_of(db, atom)
            assert (derivation is not None) == (atom in possible)
            if derivation is not None:
                assert derivation.check(db)

    def test_tampered_derivation_fails_check(self):
        db = parse_database("a. b :- a.")
        derivation = derivation_of(db, "b")
        derivation.steps.pop(0)  # remove the support for a
        assert not derivation.check(db)


class TestClosureExplanations:
    def test_negated_atom(self):
        db = parse_database("a. b :- c.")
        explanation = explain_closure_literal(db, "b")
        assert explanation.negated
        assert explanation.check(db)
        assert "closure" in explanation.render()

    def test_open_atom_has_witness(self, simple_db):
        explanation = explain_closure_literal(simple_db, "c")
        assert not explanation.negated
        assert explanation.witness == {"a", "c"}
        assert explanation.check(simple_db)

    def test_unknown_atom_is_negated(self, simple_db):
        assert explain_closure_literal(simple_db, "zz").negated

    @given(databases(max_clauses=4))
    def test_explanations_match_free_for_negation(self, db):
        from repro.semantics.gcwa import free_for_negation

        free = free_for_negation(db)
        for atom in sorted(db.vocabulary):
            explanation = explain_closure_literal(db, atom)
            assert explanation.negated == (atom in free)
            assert explanation.check(db)
