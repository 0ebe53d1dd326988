"""The paper's worked examples and table claims, as regression tests.

Every test here is traceable to a specific statement of the paper.
"""

from repro.complexity.classes import (
    CC,
    ROW_ORDER,
    TABLE1,
    TABLE2,
    Claim,
    Regime,
    Task,
    table,
)
from repro.logic.parser import parse_database
from repro.semantics import get_semantics


class TestExample31:
    """Paper Example 3.1: DB = {a | b;  :- a, b;  c :- a, b}."""

    def setup_method(self):
        self.db = parse_database("a | b. :- a, b. c :- a, b.")

    def test_ddr_does_not_infer_not_c(self):
        assert not get_semantics("ddr").infers_literal(self.db, "not c")

    def test_because_c_is_possibly_true(self):
        from repro.semantics.ddr import possibly_true_atoms

        assert "c" in possibly_true_atoms(self.db)

    def test_minimal_model_semantics_does_infer_not_c(self):
        for name in ("gcwa", "egcwa", "ecwa"):
            assert get_semantics(name).infers_literal(self.db, "not c"), name


class TestSection2Example:
    """Paper Section 2: DB with M(DB), MM(DB) and MM(DB;P;Z) spelled out:
    the example database has models {b}, {a}(*), {a,b}, {a,c}, {b,c},
    {a,b,c}, minimal models {a}, {b}, and for <{a};{b};{c}>
    MM = {b}, {b,c}, {a}, {a,c}."""

    def setup_method(self):
        # A database with exactly those models: a | b.
        self.db = parse_database("a | b.").with_vocabulary(["c"])

    def test_models(self):
        from repro.models.enumeration import all_models

        models = {frozenset(m) for m in all_models(self.db)}
        assert models == {
            frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"}),
            frozenset({"a", "c"}), frozenset({"b", "c"}),
            frozenset({"a", "b", "c"}),
        }

    def test_minimal_models(self):
        from repro.models.enumeration import minimal_models_brute

        assert {frozenset(m) for m in minimal_models_brute(self.db)} == {
            frozenset({"a"}), frozenset({"b"})
        }

    def test_pz_minimal_models(self):
        from repro.models.enumeration import pz_minimal_models_brute

        models = {
            frozenset(m)
            for m in pz_minimal_models_brute(self.db, {"a"}, {"c"})
        }
        assert models == {
            frozenset({"b"}), frozenset({"b", "c"}),
            frozenset({"a"}), frozenset({"a", "c"}),
        }


class TestTableClaimsData:
    def test_every_row_has_all_three_tasks_in_both_tables(self):
        for claims in (TABLE1, TABLE2):
            for row in ROW_ORDER:
                for task in Task:
                    assert (row, task) in claims, (row, task)

    def test_table1_tractable_cells(self):
        assert TABLE1[("ddr", Task.LITERAL)].upper is CC.P
        assert TABLE1[("pws", Task.LITERAL)].upper is CC.P

    def test_table2_literal_cells_become_conp(self):
        assert TABLE2[("ddr", Task.LITERAL)].upper is CC.CONP
        assert TABLE2[("pws", Task.LITERAL)].upper is CC.CONP

    def test_model_existence_column(self):
        for row in ROW_ORDER:
            assert TABLE1[(row, Task.EXISTS_MODEL)].upper is CC.CONSTANT
        assert TABLE2[("egcwa", Task.EXISTS_MODEL)].upper is CC.NP
        assert TABLE2[("icwa", Task.EXISTS_MODEL)].upper is CC.CONSTANT
        assert TABLE2[("dsm", Task.EXISTS_MODEL)].upper is CC.SIGMA2P
        assert TABLE2[("perf", Task.EXISTS_MODEL)].upper is CC.SIGMA2P

    def test_theta_cells(self):
        for row in ("gcwa", "ccwa"):
            claim = TABLE1[(row, Task.FORMULA)]
            assert claim.upper is CC.THETA3P
            assert claim.hard_for is CC.PI2P

    def test_render_strings(self):
        assert Claim(CC.PI2P).render() == "Pi2p-complete"
        assert "hard" in Claim(
            CC.THETA3P, complete=False, hard_for=CC.PI2P
        ).render()
        assert Claim(CC.CONSTANT).render() == "O(1)"

    def test_table_lookup_by_regime(self):
        assert table(Regime.POSITIVE) is TABLE1
        assert table(Regime.WITH_ICS) is TABLE2


class TestStructuralClaims:
    def test_stratifiability_asserts_consistency(self):
        """Paper Section 4: a stratified database is consistent (ICWA
        model existence is O(1))."""
        from repro.semantics.stratification import is_stratified
        from repro.sat.solver import database_is_consistent
        from repro.workloads import random_stratified_db

        for seed in range(5):
            db = random_stratified_db(5, 7, seed=seed)
            assert is_stratified(db)
            assert database_is_consistent(db)

    def test_positive_db_always_consistent(self):
        """Table 1 model existence is O(1): positive DDBs always have
        models (set everything true)."""
        from repro.workloads import random_positive_db

        for seed in range(5):
            db = random_positive_db(5, 7, seed=seed)
            assert db.is_model(db.vocabulary)

    def test_gcwa_vs_cwa_motivation(self):
        """Section 3.1's motivation: Reiter's CWA is inconsistent on
        disjunctive databases while GCWA is not."""
        db = parse_database("a | b.")
        # CWA would add both ¬a and ¬b — inconsistent with a | b:
        from repro.logic.clause import Clause

        cwa_closure = db.with_clauses(
            [Clause.integrity(["a"]), Clause.integrity(["b"])]
        )
        from repro.sat.solver import database_is_consistent

        assert not database_is_consistent(cwa_closure)
        assert get_semantics("gcwa").has_model(db)
