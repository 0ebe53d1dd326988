"""Tests for the Tables 1/2 reproduction harness (repro.tables)."""

from repro.complexity.classes import Regime, Task
from repro.tables import claims_grid, measure_cell, render_table
from repro.tables.evidence import CellEvidence


class TestClaimsGrid:
    def test_table1_layout(self):
        grid = claims_grid(Regime.POSITIVE)
        assert "GCWA" in grid
        assert "DDR (=WGCWA)" in grid
        assert "Pi2p-complete" in grid
        assert "O(1)" in grid

    def test_table2_differs(self):
        t1 = claims_grid(Regime.POSITIVE)
        t2 = claims_grid(Regime.WITH_ICS)
        assert t1 != t2
        assert "NP-complete" in t2

    def test_render_table_titles(self):
        assert "Table 1" in render_table(Regime.POSITIVE)
        assert "Table 2" in render_table(Regime.WITH_ICS)


class TestMeasureCell:
    def test_constant_cell_uses_no_oracle(self):
        evidence = measure_cell(
            "egcwa", Task.EXISTS_MODEL, Regime.POSITIVE,
            instances=2, atoms=4, clauses=4, with_hardness=False,
        )
        assert evidence.ok
        assert evidence.agreement
        assert evidence.max_sat_calls == 0

    def test_tractable_literal_cell(self):
        evidence = measure_cell(
            "ddr", Task.LITERAL, Regime.POSITIVE,
            instances=2, atoms=4, clauses=4, with_hardness=False,
        )
        assert evidence.ok
        assert evidence.max_sat_calls == 0  # pure fixpoint, no oracle

    def test_theta_cell_respects_bound(self):
        evidence = measure_cell(
            "gcwa", Task.FORMULA, Regime.POSITIVE,
            instances=2, atoms=4, clauses=4, with_hardness=False,
        )
        assert evidence.ok
        assert evidence.max_sigma2_calls is not None
        assert evidence.max_sigma2_calls <= evidence.sigma2_bound

    def test_pi2_cell_with_hardness(self):
        evidence = measure_cell(
            "egcwa", Task.LITERAL, Regime.POSITIVE,
            instances=2, atoms=4, clauses=4,
            with_hardness=True, hardness_instances=1,
        )
        assert evidence.ok
        assert evidence.hardness is not None
        assert evidence.hardness.ok

    def test_sigma2_existence_cell(self):
        evidence = measure_cell(
            "dsm", Task.EXISTS_MODEL, Regime.WITH_ICS,
            instances=2, atoms=4, clauses=4,
            with_hardness=True, hardness_instances=1,
        )
        assert evidence.ok

    def test_render_mentions_agreement(self):
        evidence = CellEvidence(
            row="gcwa", task=Task.LITERAL, regime=Regime.POSITIVE,
            agreement=True, instances=3, max_sat_calls=5,
        )
        assert "agrees with brute force" in evidence.render()

    def test_failed_agreement_flips_ok(self):
        evidence = CellEvidence(
            row="gcwa", task=Task.LITERAL, regime=Regime.POSITIVE,
            agreement=False,
        )
        assert not evidence.ok


class TestScalingStudy:
    def test_rows_have_expected_shape(self):
        from repro.tables.scaling import run_scaling_study

        rows = run_scaling_study(2, 3)
        assert [row.size for row in rows] == [2, 3]
        for row in rows:
            assert row.shape_ok(), row

    def test_render_rows(self):
        from repro.tables.scaling import render_rows, run_scaling_study

        text = render_rows(run_scaling_study(2, 2))
        assert "P-cell ms" in text and "naive" in text
