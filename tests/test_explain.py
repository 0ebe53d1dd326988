"""Tests for the explanations API (repro.semantics.explain)."""

import pytest
from hypothesis import given

import repro.session as session_module
from repro.errors import NotPositiveError, NotStratifiedError, ReproError
from repro.logic.formula import Not
from repro.logic.parser import parse_database, parse_formula
from repro.obs.accounting import observe
from repro.runtime.faults import FaultPlan, fault_plan
from repro.sat.incremental import clear_solver_pool
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


def _cold_np_calls(call):
    """``call()`` and its NP calls, on an empty solver pool."""
    clear_solver_pool()
    with observe() as window:
        result = call()
    return result, window.np_calls


def _search_cases():
    """``(name, db, formula)`` over seeded 6-atom databases of four
    regimes, two formulas each, for every semantics defined on the
    database."""
    for generate in (
        random_positive_db,
        random_deductive_db,
        random_stratified_db,
        random_normal_db,
    ):
        for seed in range(3):
            db = generate(6, 6, seed=seed)
            first, *_, last = sorted(db.vocabulary)
            for text in (f"{first} | ~{last}", f"{first} & ~{last}"):
                formula = parse_formula(text)
                for name in sorted(SEMANTICS):
                    try:
                        get_semantics(name).validate(db)
                    except ReproError:
                        continue
                    yield name, db, formula


def test_certificate_costs_what_the_verdict_costs():
    """A certificate is the witness of the verdict's own search, so it
    makes exactly as many NP calls as ``infers``."""
    differing = []
    for name, db, formula in _search_cases():
        engine = get_semantics(name)
        verdict, verdict_calls = _cold_np_calls(
            lambda: engine.infers(db, formula)
        )
        certificate, certificate_calls = _cold_np_calls(
            lambda: explain_non_inference(db, formula, name)
        )
        assert (certificate is None) == verdict, (name, db, formula)
        if certificate is not None:
            assert certificate.check(db), (name, db, formula)
        if certificate_calls != verdict_calls:
            differing.append((name, str(formula), certificate_calls,
                              verdict_calls))
    assert differing == []


def test_brave_is_the_cautious_search_with_f_for_not_f():
    """Brave ``F`` is cautious ``¬F`` negated, searched the same way:
    same answer, same NP calls.  PDSM is the exception by design (in
    three values ``¬F`` of degree 1 is ``F`` of degree 0)."""
    differing = []
    for name, db, formula in _search_cases():
        if name == "pdsm":
            continue
        engine = get_semantics(name)
        brave, brave_calls = _cold_np_calls(
            lambda: engine.infers_brave(db, formula)
        )
        cautious, cautious_calls = _cold_np_calls(
            lambda: engine.infers(db, Not(formula))
        )
        assert brave == (not cautious), (name, db, formula)
        if brave_calls != cautious_calls:
            differing.append((name, str(formula), brave_calls,
                              cautious_calls))
    assert differing == []


def test_certificate_search_defect_propagates(simple_db, monkeypatch):
    """Every semantics has a certificate search, so a failure that is
    not a :class:`ReproError` there is a defect, not "no certificate"."""

    def broken(db, formula, semantics):
        raise TypeError("defect in the certificate search")

    monkeypatch.setattr(session_module, "explain_non_inference", broken)
    with pytest.raises(TypeError, match="certificate search"):
        DatabaseSession(simple_db).ask("c", semantics="egcwa")


def test_certificate_search_fault_keeps_the_verdict(simple_db, monkeypatch):
    """An injected fault during the certificate search (a
    :class:`ReproError`, like a budget trip) drops the certificate and
    keeps the verdict."""
    real = session_module.explain_non_inference
    plan = FaultPlan(sat_fault_rate=1.0)

    def faulty(db, formula, semantics):
        with fault_plan(plan):
            return real(db, formula, semantics)

    monkeypatch.setattr(session_module, "explain_non_inference", faulty)
    answer = DatabaseSession(simple_db).ask("c", semantics="egcwa")
    assert plan.sat_faults == 1
    assert answer.verdict is False
    assert answer.certificate is None


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
