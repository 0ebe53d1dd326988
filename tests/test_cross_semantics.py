"""Cross-semantics relationships the paper states or relies on.

Each test is one of the ``≡`` / ``⊆`` facts from the paper (Section 1-5),
verified over random databases with two *independently implemented*
semantics engines.
"""

from hypothesis import given

from repro.logic.parser import parse_database
from repro.models.enumeration import minimal_models_brute
from repro.semantics import get_semantics

from conftest import databases, positive_databases
from reference_models import CircumscriptionChecker


@given(positive_databases(max_clauses=4))
def test_egcwa_equals_ecwa_with_empty_qz(db):
    """EGCWA results from ECWA if Q = Z = ∅ (paper, Section 3.3)."""
    assert get_semantics("egcwa").model_set(db) == get_semantics(
        "ecwa", p=sorted(db.vocabulary)
    ).model_set(db)


@given(databases(max_clauses=4))
def test_gcwa_equals_ccwa_with_empty_qz(db):
    """GCWA coincides with CCWA for Q = Z = ∅ (paper, Section 3.1)."""
    assert get_semantics("gcwa").model_set(db) == get_semantics(
        "ccwa", p=sorted(db.vocabulary)
    ).model_set(db)


@given(databases(max_clauses=4))
def test_circ_equals_ecwa(db):
    """CIRC_{P;Z}(DB) = ECWA_{P;Z}(DB) propositionally (paper, 3.3):
    ECWA against Lifschitz's formula (the reference checker)."""
    atoms = sorted(db.vocabulary)
    p, z = atoms[:3], atoms[4:5]
    assert get_semantics("ecwa", p=p, z=z).model_set(db) == frozenset(
        CircumscriptionChecker(db, p, z).circumscribed_models()
    )


@given(positive_databases(max_clauses=4))
def test_perf_equals_minimal_models_on_positive(db):
    """On positive databases PERF selects exactly MM(DB)."""
    assert get_semantics("perf").model_set(db) == frozenset(
        minimal_models_brute(db)
    )


@given(positive_databases(max_clauses=4))
def test_dsm_equals_minimal_models_on_positive(db):
    """If DB ⊆ C+ then DSM(DB) = MM(DB) (paper, Section 5.2)."""
    assert get_semantics("dsm").model_set(db) == frozenset(
        minimal_models_brute(db)
    )


@given(positive_databases(max_clauses=4))
def test_gcwa_models_sandwich(db):
    """MM(DB) ⊆ GCWA(DB) ⊆ M(DB), and GCWA ⊆ DDR models (WGCWA is
    weaker: it negates fewer atoms... the inclusion goes GCWA ⊆ DDR)."""
    from repro.models.enumeration import all_models

    minimal = frozenset(minimal_models_brute(db))
    gcwa = get_semantics("gcwa").model_set(db)
    ddr = get_semantics("ddr").model_set(db)
    models = frozenset(all_models(db))
    assert minimal <= gcwa <= models
    assert gcwa <= ddr


@given(positive_databases(max_clauses=4))
def test_possible_models_include_minimal_models(db):
    """Every minimal model is a possible model (choose supported heads),
    so PWS inference is weaker than EGCWA inference."""
    pws = get_semantics("pws").model_set(db)
    assert frozenset(minimal_models_brute(db)) <= pws


@given(databases(allow_ic=False, max_clauses=4))
def test_perfect_models_are_stable_for_stratified(db):
    """For DSDBs, PERF(DB) ⊆ DSM(DB) (perfect models are stable)."""
    from repro.semantics.stratification import is_stratified

    if not is_stratified(db):
        return
    assert get_semantics("perf").model_set(db) <= get_semantics(
        "dsm"
    ).model_set(db)


@given(databases(allow_ic=False, max_clauses=4))
def test_icwa_equals_perf_on_stratified(db):
    """ICWA was introduced to capture PERF under stratified negation."""
    from repro.semantics.stratification import is_stratified

    if not is_stratified(db):
        return
    assert get_semantics("icwa").model_set(db) == get_semantics(
        "perf"
    ).model_set(db)


@given(databases(max_clauses=3))
def test_total_pdsm_are_dsm(db):
    """PDSM restricted to total interpretations is DSM."""
    total = {
        m.to_total()
        for m in get_semantics("pdsm").model_set(db)
        if m.is_total
    }
    assert total == set(get_semantics("dsm").model_set(db))


def test_all_semantics_agree_on_definite_databases():
    """On a definite (Horn, consistent) database every semantics selects
    model sets that all contain the least model, and the closure
    semantics all infer exactly the least model's positive atoms."""
    db = parse_database("a. b :- a. c :- d.")
    least = frozenset({"a", "b"})
    for name in ["gcwa", "egcwa", "ecwa", "ddr", "pws", "perf", "icwa",
                 "dsm"]:
        semantics = get_semantics(name)
        models = semantics.model_set(db)
        assert least in models, name
        for atom in ("a", "b"):
            assert semantics.infers_literal(db, atom), (name, atom)
        for atom in ("c", "d"):
            assert semantics.infers_literal(db, "not " + atom), (name, atom)
