"""Tests for the hardness reductions (repro.complexity.reductions)."""

import pytest
from hypothesis import given, settings

from repro.complexity.reductions import (
    cnf_to_database,
    database_to_cnf_clauses,
    dnf_terms,
    has_unique_minimal_model,
    qbf_to_dsm_existence,
    qbf_to_minimal_entailment,
    qbf_to_pdsm_existence,
    qbf_to_perf_existence,
    to_normal_program,
    unsat_to_ddr_formula,
    unsat_to_ddr_literal,
    unsat_to_nlp_unique_minimal,
    unsat_to_uminsat,
)
from repro.complexity.verify import check_reduction
from repro.errors import ReproError
from repro.logic.atoms import Literal
from repro.logic.formula import And, Not, Or, Var
from repro.logic.parser import parse_database
from repro.models.enumeration import minimal_models_brute
from repro.qbf.formula import exists_forall, forall_exists, dnf_formula
from repro.qbf.solver import solve_qbf2_brute
from repro.sat.solver import is_satisfiable
from repro.semantics import get_semantics
from repro.workloads import random_cnf, random_qbf2

from test_qbf import qbf2s


def small_qbfs():
    qbfs = [random_qbf2(2, 2, num_terms=3, width=3, seed=s) for s in range(8)]
    qbfs.append(
        exists_forall(
            ["x1"], ["y1"],
            dnf_formula([(("x1", "y1"), ()), (("x1",), ("y1",))]),
        )
    )
    qbfs.append(
        exists_forall(["x1"], ["y1"], dnf_formula([(("x1",), ("y1",))]))
    )
    return qbfs


def small_cnfs():
    cnfs = [random_cnf(3, 5, seed=s) for s in range(8)]
    cnfs.append([frozenset({Literal.pos("x1")}),
                 frozenset({Literal.neg("x1")})])
    return cnfs


class TestDnfTerms:
    def test_decomposition(self):
        matrix = Or(And(Var("a"), Not(Var("b"))), Var("c"))
        assert dnf_terms(matrix) == [
            (frozenset({"a"}), frozenset({"b"})),
            (frozenset({"c"}), frozenset()),
        ]

    def test_rejects_non_dnf(self):
        with pytest.raises(ReproError):
            dnf_terms(And(Or(Var("a"), Var("b")), Var("c")))


class TestQbfToMinimalEntailment:
    def test_output_is_positive_ddb(self):
        instance = qbf_to_minimal_entailment(small_qbfs()[0])
        assert instance.db.is_positive

    def test_requires_exists_forall(self):
        qbf = forall_exists(["x"], ["y"], dnf_formula([(("x",), ())]))
        with pytest.raises(ReproError):
            qbf_to_minimal_entailment(qbf)

    def test_equivalence_on_batch(self):
        report = check_reduction(
            "qbf→mm",
            small_qbfs(),
            lambda q: solve_qbf2_brute(q).valid,
            lambda q: any(
                "w" in m
                for m in minimal_models_brute(
                    qbf_to_minimal_entailment(q).db
                )
            ),
        )
        assert report.ok, report.render()
        assert 0 < report.yes_instances < report.total

    def test_gcwa_literal_form_of_the_contract(self):
        """valid ⟺ GCWA(T) does NOT infer ¬w (the Table 1 hardness)."""
        for qbf in small_qbfs()[:4] + small_qbfs()[-2:]:
            valid = solve_qbf2_brute(qbf).valid
            instance = qbf_to_minimal_entailment(qbf)
            inferred = get_semantics("gcwa").infers_literal(
                instance.db, instance.query_literal
            )
            assert inferred == (not valid)


class TestQbfToStableExistence:
    def test_dsm_instance_has_no_integrity_clauses(self):
        instance = qbf_to_dsm_existence(small_qbfs()[0])
        assert not instance.db.has_integrity_clauses
        assert instance.db.has_negation

    def test_dsm_equivalence(self):
        report = check_reduction(
            "qbf→dsm",
            small_qbfs(),
            lambda q: solve_qbf2_brute(q).valid,
            lambda q: get_semantics("dsm").has_model(
                qbf_to_dsm_existence(q).db
            ),
        )
        assert report.ok, report.render()
        assert 0 < report.yes_instances < report.total

    def test_pdsm_equivalence(self):
        report = check_reduction(
            "qbf→pdsm",
            small_qbfs(),
            lambda q: solve_qbf2_brute(q).valid,
            lambda q: get_semantics("pdsm").has_model(
                qbf_to_pdsm_existence(q).db
            ),
        )
        assert report.ok, report.render()

    def test_perf_equivalence(self):
        report = check_reduction(
            "qbf→perf",
            small_qbfs(),
            lambda q: solve_qbf2_brute(q).valid,
            lambda q: get_semantics("perf").has_model(
                qbf_to_perf_existence(q).db
            ),
        )
        assert report.ok, report.render()


class TestSatToModelExistence:
    def test_cnf_round_trip_preserves_models(self):
        cnf = small_cnfs()[0]
        db = cnf_to_database(cnf)
        back = database_to_cnf_clauses(db)
        assert {frozenset(c) for c in back} == {frozenset(c) for c in cnf}

    def test_existence_matches_sat(self):
        report = check_reduction(
            "sat→egcwa-existence",
            small_cnfs(),
            is_satisfiable,
            lambda cnf: get_semantics("egcwa").has_model(
                cnf_to_database(cnf)
            ),
        )
        assert report.ok, report.render()


class TestUminsat:
    def test_unique_minimal_detection(self):
        assert has_unique_minimal_model(parse_database("a. b :- a."))
        assert not has_unique_minimal_model(parse_database("a | b."))
        assert not has_unique_minimal_model(parse_database("a. :- a."))

    def test_reduction_equivalence(self):
        report = check_reduction(
            "unsat→uminsat",
            small_cnfs(),
            lambda cnf: not is_satisfiable(cnf),
            lambda cnf: has_unique_minimal_model(unsat_to_uminsat(cnf)),
        )
        assert report.ok, report.render()
        assert report.yes_instances >= 1

    def test_reduction_output_has_no_integrity_clauses(self):
        db = unsat_to_uminsat(small_cnfs()[0])
        assert not db.has_integrity_clauses

    def test_normal_program_transform_preserves_minimal_models(self):
        db = parse_database("a | b | c. d :- a.")
        normal = to_normal_program(db)
        assert normal.is_normal_nondisjunctive
        assert set(minimal_models_brute(db)) == set(
            minimal_models_brute(normal)
        )

    def test_lemma_55_pipeline(self):
        report = check_reduction(
            "unsat→nlp-unique-minimal (Lemma 5.5)",
            small_cnfs(),
            lambda cnf: not is_satisfiable(cnf),
            lambda cnf: has_unique_minimal_model(
                unsat_to_nlp_unique_minimal(cnf)
            ),
        )
        assert report.ok, report.render()
        # and the target really is a normal logic program:
        assert unsat_to_nlp_unique_minimal(
            small_cnfs()[0]
        ).is_normal_nondisjunctive

    def test_fresh_atom_clash_rejected(self):
        with pytest.raises(ValueError):
            unsat_to_uminsat([frozenset({Literal.pos("a_fresh")})])


class TestUnsatToClosure:
    def test_formula_reduction_no_ics(self):
        instance = unsat_to_ddr_formula(small_cnfs()[0])
        assert instance.db.is_positive

    def test_formula_reduction_equivalence_ddr_and_pws(self):
        for name in ("ddr", "pws"):
            report = check_reduction(
                f"unsat→{name}-formula",
                small_cnfs(),
                lambda cnf: not is_satisfiable(cnf),
                lambda cnf, name=name: get_semantics(name).infers(
                    unsat_to_ddr_formula(cnf).db,
                    unsat_to_ddr_formula(cnf).formula,
                ),
            )
            assert report.ok, report.render()
            assert report.yes_instances >= 1

    def test_literal_reduction_uses_ics(self):
        instance = unsat_to_ddr_literal(small_cnfs()[0])
        assert instance.db.has_integrity_clauses

    def test_literal_reduction_equivalence(self):
        for name in ("ddr", "pws"):
            report = check_reduction(
                f"unsat→{name}-literal",
                small_cnfs(),
                lambda cnf: not is_satisfiable(cnf),
                lambda cnf, name=name: get_semantics(name).infers_literal(
                    unsat_to_ddr_literal(cnf).db,
                    unsat_to_ddr_literal(cnf).literal,
                ),
            )
            assert report.ok, report.render()

    def test_fresh_atom_clash_rejected(self):
        with pytest.raises(ValueError):
            unsat_to_ddr_literal([frozenset({Literal.pos("u_fresh")})])


@given(qbf2s())
@settings(max_examples=10)
def test_mm_reduction_property(qbf):
    """Property form of the central reduction on arbitrary 2QBFs
    (normalized to the ∃∀ form)."""
    if not qbf.exists_first:
        return
    valid = solve_qbf2_brute(qbf).valid
    instance = qbf_to_minimal_entailment(qbf)
    witness = any(
        "w" in m for m in minimal_models_brute(instance.db)
    )
    assert witness == valid


class TestReductionsAtOracleScale:
    """Medium-size instances decided via the oracle engines (brute force
    would be 2^20-ish here), cross-checked against the CEGAR 2QBF solver."""

    def test_mm_reduction_medium(self):
        from repro.qbf.solver import solve_qbf2_cegar
        from repro.sat.minimal import MinimalModelSolver
        from repro.logic.formula import Var

        for seed in (0, 1, 2, 3):
            qbf = random_qbf2(3, 3, num_terms=4, width=3, seed=seed)
            valid = solve_qbf2_cegar(qbf).valid
            instance = qbf_to_minimal_entailment(qbf)
            witness = MinimalModelSolver(
                instance.db
            ).find_minimal_satisfying(Var("w"))
            assert (witness is not None) == valid, seed

    def test_dsm_existence_medium(self):
        from repro.qbf.solver import solve_qbf2_cegar

        for seed in (0, 1, 2):
            qbf = random_qbf2(3, 3, num_terms=4, width=3, seed=seed)
            valid = solve_qbf2_cegar(qbf).valid
            db = qbf_to_dsm_existence(qbf).db
            assert get_semantics("dsm").has_model(db) == valid, seed

    def test_perf_existence_medium(self):
        from repro.qbf.solver import solve_qbf2_cegar

        for seed in (0, 1):
            qbf = random_qbf2(3, 2, num_terms=3, width=3, seed=seed)
            valid = solve_qbf2_cegar(qbf).valid
            db = qbf_to_perf_existence(qbf).db
            assert get_semantics("perf").has_model(db) == valid, seed


class TestReductionReportRender:
    """The report renderer pins: full text for small failure sets, an
    explicit elision marker beyond RENDER_LIMIT."""

    def _report(self, num_disagreements):
        from repro.complexity.verify import ReductionReport

        return ReductionReport(
            name="demo",
            total=10,
            yes_instances=4,
            disagreements=[
                f"inst{i}: source=True target=False"
                for i in range(num_disagreements)
            ],
        )

    def test_ok_report_has_no_elision(self):
        report = self._report(0)
        assert report.ok
        assert "more" not in report.render()

    def test_few_disagreements_all_shown(self):
        report = self._report(3)
        text = report.render()
        for i in range(3):
            assert f"inst{i}" in text
        assert "…and" not in text

    def test_many_disagreements_elided_with_marker(self):
        report = self._report(7)
        text = report.render()
        # The first RENDER_LIMIT are spelled out, the rest counted.
        for i in range(3):
            assert f"inst{i}" in text
        assert "inst3" not in text
        assert "…and 4 more" in text

    def test_marker_count_tracks_limit(self):
        report = self._report(4)
        assert "…and 1 more" in report.render()
