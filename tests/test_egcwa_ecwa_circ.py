"""Tests for EGCWA, ECWA and circumscription (and their equivalences).

``circ`` is a registry alias of ``ecwa``; the CIRC tests check ECWA's
oracle engine against Lifschitz's definition, decided by the reference
checker in :mod:`reference_models`.
"""

from hypothesis import given

from repro.logic.parser import parse_database, parse_formula
from repro.models.enumeration import minimal_models_brute
from repro.semantics import get_semantics

from conftest import databases
from reference_models import (
    CircumscriptionChecker,
    all_models,
    circumscription_axiom,
)


class TestEgcwa:
    def test_model_set_is_minimal_models(self, simple_db):
        assert get_semantics("egcwa").model_set(simple_db) == frozenset(
            minimal_models_brute(simple_db)
        )

    def test_infers_exclusive_disjunction(self):
        db = parse_database("a | b.")
        egcwa = get_semantics("egcwa")
        assert egcwa.infers(db, parse_formula("~a | ~b"))
        assert not egcwa.infers_literal(db, "not a")

    def test_positive_db_always_has_model(self, simple_db):
        assert get_semantics("egcwa").has_model(simple_db)

    def test_existence_is_consistency_with_ics(self):
        egcwa = get_semantics("egcwa")
        assert not egcwa.has_model(parse_database("a. :- a."))
        assert egcwa.has_model(parse_database("a | b. :- a."))

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute(self, db):
        formula = parse_formula("(a -> b) & ~c")
        assert get_semantics("egcwa").infers(db, formula) == get_semantics(
            "egcwa", engine="brute"
        ).infers(db, formula)


class TestEcwa:
    def test_default_partition_is_egcwa(self, simple_db):
        assert get_semantics("ecwa").model_set(simple_db) == get_semantics(
            "egcwa"
        ).model_set(simple_db)

    def test_floating_atoms_are_not_minimized(self):
        db = parse_database("a | z.")
        ecwa = get_semantics("ecwa", p=["a"], z=["z"])
        models = {frozenset(m) for m in ecwa.model_set(db)}
        # a is minimized away; z floats over both values among models.
        assert models == {frozenset({"z"})}

    def test_fixed_atoms_split_cases(self):
        db = parse_database("a | q.")
        ecwa = get_semantics("ecwa", p=["a"], z=[])
        models = {frozenset(m) for m in ecwa.model_set(db)}
        assert models == {frozenset({"q"}), frozenset({"a"})}

    @given(databases(max_clauses=4))
    def test_oracle_matches_brute(self, db):
        atoms = sorted(db.vocabulary)
        p, z = atoms[:3], atoms[4:5]
        formula = parse_formula("a | ~b")
        oracle = get_semantics("ecwa", p=p, z=z).infers(db, formula)
        brute = get_semantics("ecwa", p=p, z=z, engine="brute").infers(
            db, formula
        )
        assert oracle == brute


class TestCircumscription:
    def test_checker_accepts_exactly_pz_minimal_models(self, simple_db):
        checker = CircumscriptionChecker(
            simple_db, simple_db.vocabulary, set()
        )
        minimal = {frozenset(m) for m in minimal_models_brute(simple_db)}
        for model in all_models(simple_db):
            assert checker.is_circumscribed(model) == (
                frozenset(model) in minimal
            )

    def test_checker_rejects_non_models(self, simple_db):
        checker = CircumscriptionChecker(
            simple_db, simple_db.vocabulary, set()
        )
        assert not checker.is_circumscribed(frozenset({"a"}))

    @given(databases(max_clauses=4))
    def test_circ_equals_ecwa(self, db):
        """The paper: CIRC_{P;Z}(DB) = ECWA_{P;Z}(DB) propositionally —
        ECWA's oracle engine, asked under its ``circ`` alias, against
        Lifschitz's formula."""
        atoms = sorted(db.vocabulary)
        p, z = atoms[:3], atoms[4:5]
        circ = get_semantics("circ", p=p, z=z)
        assert circ.name == "ecwa"
        expected = CircumscriptionChecker(db, p, z).circumscribed_models()
        assert circ.model_set(db) == frozenset(expected)

    @given(databases(max_clauses=4))
    def test_circ_inference_matches_ecwa(self, db):
        formula = parse_formula("~a | (b & c)")
        circumscribed = CircumscriptionChecker(
            db, db.vocabulary, ()
        ).circumscribed_models()
        expected = all(m.satisfies(formula) for m in circumscribed)
        assert get_semantics("circ").infers(db, formula) == expected


class TestCircumscriptionAxiom:
    """A third, QBF-based route to CIRC: Lifschitz's axiom instantiated
    at a model is a 2QBF sentence whose validity is circumscribedness."""

    def test_axiom_on_simple_db(self, simple_db):
        from repro.qbf.solver import is_valid
        from repro.sat.minimal import is_minimal_model

        for model in all_models(simple_db):
            qbf = circumscription_axiom(
                simple_db, simple_db.vocabulary, set(), model
            )
            assert is_valid(qbf) == is_minimal_model(simple_db, model)

    @given(databases(max_clauses=3))
    def test_axiom_matches_checker(self, db):
        from repro.qbf.solver import is_valid

        atoms = sorted(db.vocabulary)
        p, z = set(atoms[:3]), set(atoms[4:5])
        checker = CircumscriptionChecker(db, p, z)
        for model in all_models(db)[:6]:
            qbf = circumscription_axiom(db, p, z, model)
            assert is_valid(qbf) == checker.is_circumscribed(model)
