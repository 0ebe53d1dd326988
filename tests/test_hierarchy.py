"""Tests for the polynomial-hierarchy structure module."""

import pytest

from repro.complexity.classes import CC
from repro.complexity.hierarchy import (
    OracleSignature,
    is_subclass_of,
    log_bound,
    signature_consistent_with,
    strictness_caveat,
)


class TestInclusions:
    @pytest.mark.parametrize(
        "lower,upper",
        [
            (CC.CONSTANT, CC.P),
            (CC.P, CC.NP),
            (CC.P, CC.CONP),
            (CC.P, CC.PI2P),
            (CC.NP, CC.SIGMA2P),
            (CC.CONP, CC.PI2P),
            (CC.CONSTANT, CC.THETA3P),
            (CC.SIGMA2P, CC.THETA3P),
            (CC.PI2P, CC.THETA3P),
        ],
    )
    def test_known_inclusions(self, lower, upper):
        assert is_subclass_of(lower, upper)

    @pytest.mark.parametrize(
        "lower,upper",
        [
            (CC.NP, CC.CONP),
            (CC.CONP, CC.NP),
            (CC.SIGMA2P, CC.PI2P),
            (CC.THETA3P, CC.P),
            (CC.PI2P, CC.NP),
        ],
    )
    def test_non_inclusions(self, lower, upper):
        assert not is_subclass_of(lower, upper)

    def test_reflexive(self):
        for cls in CC:
            assert is_subclass_of(cls, cls)


class TestSignatures:
    def test_p_cell_signature(self):
        sig = OracleSignature(size=10, sat_calls=0)
        assert signature_consistent_with(sig, CC.P)
        assert signature_consistent_with(sig, CC.CONSTANT)
        assert not signature_consistent_with(
            OracleSignature(size=10, sat_calls=1), CC.P
        )

    def test_conp_cell_signature(self):
        sig = OracleSignature(size=10, sat_calls=1)
        assert signature_consistent_with(sig, CC.CONP)
        assert not signature_consistent_with(
            OracleSignature(size=10, sat_calls=50), CC.CONP
        )

    def test_theta_cell_signature(self):
        assert signature_consistent_with(
            OracleSignature(size=8, sat_calls=100, sigma2_calls=4),
            CC.THETA3P,
        )
        assert not signature_consistent_with(
            OracleSignature(size=8, sat_calls=100, sigma2_calls=9),
            CC.THETA3P,
        )

    def test_pi2_admits_anything(self):
        assert signature_consistent_with(
            OracleSignature(size=8, sat_calls=10_000), CC.PI2P
        )

    def test_log_bound_matches_theta_machine(self):
        from repro.complexity.machines import theta_inference
        from repro.logic.parser import parse_formula
        from repro.workloads import exclusive_pairs

        db = exclusive_pairs(3)
        result = theta_inference(db, parse_formula("x1 | y1"))
        assert result.call_bound == log_bound(len(db.vocabulary))


class TestMeasuredProfilesMatchClaims:
    """Bridge test: the actual engines' measured profiles are consistent
    with the tables' claimed classes under the signature rules."""

    def test_ddr_literal_profile(self):
        from repro.complexity.classes import TABLE1, Task
        from repro.obs.accounting import observe
        from repro.semantics import get_semantics
        from repro.workloads import random_positive_db

        db = random_positive_db(6, 7, seed=1)
        with observe() as window:
            get_semantics("ddr").infers_literal(db, "not v1")
        sig = OracleSignature(size=len(db.vocabulary),
                              sat_calls=window.np_calls)
        claim = TABLE1[("ddr", Task.LITERAL)]
        assert signature_consistent_with(sig, claim.upper)

    def test_theta_profile(self):
        from repro.complexity.classes import TABLE1, Task
        from repro.complexity.machines import theta_inference
        from repro.logic.parser import parse_formula
        from repro.workloads import random_positive_db

        db = random_positive_db(6, 7, seed=2)
        result = theta_inference(db, parse_formula("v1 | ~v2"))
        sig = OracleSignature(
            size=len(db.vocabulary),
            sat_calls=0,
            sigma2_calls=result.sigma2_calls,
        )
        claim = TABLE1[("gcwa", Task.FORMULA)]
        assert signature_consistent_with(sig, claim.upper)


def test_strictness_caveat_wording():
    assert "open" in strictness_caveat(CC.NP, CC.SIGMA2P)
    assert "not known" in strictness_caveat(CC.SIGMA2P, CC.PI2P)
    assert "equal" in strictness_caveat(CC.P, CC.P)
