"""Failure injection: wrong inputs must fail loudly and precisely."""

import pytest

from repro.errors import (
    NotPositiveError,
    NotStratifiedError,
    ParseError,
    PartitionError,
    ReproError,
    SolverError,
)
from repro.logic.parser import parse_clause, parse_database, parse_formula
from repro.semantics import get_semantics


class TestParserFailures:
    @pytest.mark.parametrize(
        "text",
        [
            "a | | b.",
            "a :- not .",
            ":- .",
            "a :- b,, c.",
            "1bad.",
        ],
    )
    def test_clause_errors(self, text):
        with pytest.raises(ParseError):
            parse_clause(text)

    def test_formula_error_carries_context(self):
        with pytest.raises(ParseError) as info:
            parse_formula("a & & b")
        assert "formula" in str(info.value) or "found" in str(info.value)

    def test_empty_formula(self):
        with pytest.raises(ParseError):
            parse_formula("   ")


class TestDomainRestrictions:
    def test_ddr_rejects_negation(self, unstratified_db):
        for method in ("infers", "model_set", "has_model"):
            with pytest.raises(NotPositiveError):
                semantics = get_semantics("ddr")
                if method == "infers":
                    semantics.infers(unstratified_db, parse_formula("a"))
                elif method == "model_set":
                    semantics.model_set(unstratified_db)
                else:
                    semantics.has_model(unstratified_db)

    def test_pws_rejects_negation(self, unstratified_db):
        with pytest.raises(NotPositiveError):
            get_semantics("pws").has_model(unstratified_db)

    def test_perf_rejects_integrity_clauses(self):
        db = parse_database("a | b. :- a, b.")
        with pytest.raises(NotPositiveError):
            get_semantics("perf").model_set(db)

    def test_icwa_rejects_unstratified(self, unstratified_db):
        with pytest.raises(NotStratifiedError):
            get_semantics("icwa").infers(
                unstratified_db, parse_formula("a")
            )

    def test_partition_errors_bubble_up(self, simple_db):
        with pytest.raises(PartitionError):
            get_semantics("ecwa", p=["a"], z=["a"]).model_set(simple_db)


class TestSolverGuards:
    def test_pz_solver_rejects_bad_partition(self, simple_db):
        from repro.sat.minimal import MinimalModelSolver

        with pytest.raises(PartitionError):
            MinimalModelSolver(simple_db, [{"a", "nope"}], z=set())

    def test_prioritized_solver_rejects_overlap(self, simple_db):
        from repro.sat.minimal import MinimalModelSolver

        with pytest.raises(SolverError):
            MinimalModelSolver(simple_db, levels=[{"a"}, {"a"}])

    def test_prioritized_solver_rejects_level_outside_vocabulary(
        self, simple_db
    ):
        from repro.sat.minimal import MinimalModelSolver

        with pytest.raises(PartitionError):
            MinimalModelSolver(simple_db, levels=[{"a", "nope"}, {"b"}])

    def test_prioritized_solver_rejects_z_outside_vocabulary(
        self, simple_db
    ):
        from repro.sat.minimal import MinimalModelSolver

        with pytest.raises(PartitionError):
            MinimalModelSolver(simple_db, levels=[{"a"}, {"b"}], z={"zz"})

    def test_qbf_engine_typo(self):
        from repro.qbf.formula import dnf_formula, exists_forall
        from repro.qbf.solver import is_valid

        qbf = exists_forall(["x"], ["y"], dnf_formula([(("x",), ())]))
        with pytest.raises(ValueError):
            is_valid(qbf, engine="typo")


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ParseError,
            NotPositiveError,
            NotStratifiedError,
            PartitionError,
            SolverError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parse_error_fields(self):
        error = ParseError("bad", text="a &", position=2)
        assert error.text == "a &" and error.position == 2
