"""Tests for the oracle machinery (repro.complexity)."""

import math

import pytest
from hypothesis import given, settings

from repro.complexity.machines import linear_inference, theta_inference
from repro.complexity.oracles import OracleProfile, Sigma2Oracle, profile
from repro.logic.formula import Not, Var
from repro.logic.parser import parse_database, parse_formula
from repro.obs.accounting import observe
from repro.semantics import get_semantics

from conftest import databases, positive_databases


class TestCountSatCalls:
    def test_counts_nested_calls(self, simple_db):
        with observe() as window:
            get_semantics("egcwa").infers(simple_db, parse_formula("a"))
        assert window.np_calls >= 1

    def test_zero_for_pure_python(self):
        with observe() as window:
            sum(range(10))
        assert window.np_calls == 0

    def test_nesting_is_additive(self, simple_db):
        with observe() as outer:
            with observe() as inner:
                get_semantics("egcwa").has_model(
                    parse_database("a. :- a.")
                )
            baseline = inner.np_calls
            get_semantics("egcwa").has_model(parse_database("a. :- a."))
        assert outer.np_calls == 2 * baseline


class TestSigma2Oracle:
    def test_query_counts_once(self, simple_db):
        oracle = Sigma2Oracle()
        assert oracle.query(simple_db, Var("c"))
        assert not oracle.query(simple_db, parse_formula("b & c"))
        assert oracle.queries == 2
        assert oracle.inner_sat_calls >= 2

    def test_entails_is_complement(self, simple_db):
        # MM(simple_db) = {{b}, {a,c}}: ~a | c holds in both, c does not.
        oracle = Sigma2Oracle()
        assert oracle.entails(simple_db, parse_formula("~a | c"))
        assert not oracle.entails(simple_db, parse_formula("c"))

    def test_pz_query(self):
        db = parse_database("a | z.")
        oracle = Sigma2Oracle()
        assert not oracle.query(db, Var("a"), p={"a"}, z={"z"})

    def test_witness_returns_model(self, simple_db):
        oracle = Sigma2Oracle()
        witness = oracle.witness(simple_db, Var("c"))
        assert witness == {"a", "c"}


class TestThetaInference:
    def test_agrees_with_brute_gcwa(self, simple_db):
        brute = get_semantics("gcwa", engine="brute")
        for text in ("~a | ~b", "a | b", "c -> a", "~c"):
            formula = parse_formula(text)
            result = theta_inference(simple_db, formula)
            assert result.inferred == brute.infers(simple_db, formula)

    def test_call_bound_is_logarithmic(self, simple_db):
        result = theta_inference(simple_db, parse_formula("a | b"))
        n = len(simple_db.vocabulary)
        assert result.call_bound == math.ceil(math.log2(n + 1)) + 1
        assert result.sigma2_calls <= result.call_bound

    def test_witness_count_is_sstar_size(self, simple_db):
        # All three atoms occur in some minimal model ({b}, {a,c}).
        result = theta_inference(simple_db, parse_formula("a"))
        assert result.witness_count == 3

    def test_empty_sstar(self):
        db = parse_database("a :- b. b :- a.")  # empty minimal model
        result = theta_inference(db, parse_formula("~a & ~b"))
        assert result.witness_count == 0
        assert result.inferred

    def test_ccwa_partition(self):
        db = parse_database("a | z.")
        result = theta_inference(
            db, parse_formula("~a"), p={"a"}, z={"z"}
        )
        assert result.inferred
        assert result.witness_count == 0

    @given(positive_databases(max_clauses=4))
    @settings(max_examples=10)
    def test_matches_brute_on_random_dbs(self, db):
        formula = parse_formula("~a | (b & ~c)")
        result = theta_inference(db, formula)
        expected = get_semantics("gcwa", engine="brute").infers(db, formula)
        assert result.inferred == expected
        assert result.sigma2_calls <= result.call_bound

    @given(databases(max_clauses=3))
    @settings(max_examples=6)
    def test_matches_brute_with_ics(self, db):
        formula = parse_formula("a | ~b")
        result = theta_inference(db, formula)
        expected = get_semantics("gcwa", engine="brute").infers(db, formula)
        assert result.inferred == expected


class TestLinearInference:
    def test_agrees_with_theta(self, simple_db):
        for text in ("~a | ~b", "a | b", "~c"):
            formula = parse_formula(text)
            assert (
                linear_inference(simple_db, formula).inferred
                == theta_inference(simple_db, formula).inferred
            )

    def test_linear_call_count(self, simple_db):
        result = linear_inference(simple_db, parse_formula("a"))
        assert result.sigma2_calls == len(simple_db.vocabulary)
        assert result.call_bound == len(simple_db.vocabulary) + 1

    def test_theta_uses_fewer_oracle_calls_at_scale(self):
        from repro.workloads import exclusive_pairs

        db = exclusive_pairs(4)  # 8 atoms
        formula = parse_formula("x1 | y1")
        theta = theta_inference(db, formula)
        linear = linear_inference(db, formula)
        assert theta.inferred == linear.inferred
        assert theta.sigma2_calls < linear.sigma2_calls


class TestProfile:
    def test_profile_records_calls(self, simple_db):
        record = profile(
            get_semantics("egcwa").infers, simple_db, parse_formula("a | b")
        )
        assert isinstance(record, OracleProfile)
        assert record.answer is True
        assert record.sat_calls >= 1

    def test_render(self):
        assert "SAT-calls" in OracleProfile(answer=True, sat_calls=3).render()
