"""Deterministic fault-injection tests (repro.runtime.faults + the
resilient engine's degradation ladder).

Pinned claims:

* a :class:`~repro.runtime.faults.FaultPlan` is a pure function of its
  seed — re-running the same evaluation under the same seed takes the
  same degradation path (same status, answer, attempt and fault counts);
* the per-channel streams are independent: enabling latency does not
  shift which SAT calls fault;
* every rung of the ladder is reachable and deterministic: retry →
  success, fallback → DEGRADED, no fallback → FAILED;
* with **no faults injected**, ``engine="resilient"`` is answer-identical
  to ``engine="oracle"`` across the full seeded differential corpus.
"""

from __future__ import annotations

import pytest

from repro.engine.resilient import RetryPolicy
from repro.logic.atoms import Literal
from repro.logic.parser import parse_database, parse_formula
from repro.runtime import (
    RUNTIME_STATS,
    FaultInjected,
    FaultPlan,
    Status,
    fault_plan,
)
from repro.semantics import get_semantics
from repro.workloads import random_query_formula

from test_differential import COUNTS, SEMANTICS_FOR, build_db


@pytest.fixture(autouse=True)
def _reset_runtime_stats():
    RUNTIME_STATS.reset()
    yield
    RUNTIME_STATS.reset()


def outcome_signature(outcome):
    """The deterministic part of an outcome (usage carries wall-clock
    timings, which legitimately vary run to run)."""
    return (
        outcome.status,
        outcome.value,
        outcome.attempts,
        outcome.engine_used,
        outcome.faults,
    )


DB_TEXT = "a | b. c :- a. d | e :- b."
QUERY_TEXT = "~a | ~b"


def run_once(seed, sat_fault_rate=0.5, max_retries=2, **plan_kwargs):
    db = parse_database(DB_TEXT)
    query = parse_formula(QUERY_TEXT)
    semantics = get_semantics(
        "egcwa",
        engine="resilient",
        retry=RetryPolicy(max_retries=max_retries, backoff_ms=0),
    )
    plan = FaultPlan(seed=seed, sat_fault_rate=sat_fault_rate, **plan_kwargs)
    with fault_plan(plan):
        outcome = semantics.run("infers", db, query)
    return outcome, plan


# ----------------------------------------------------------------------
# Seeded determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_same_degradation_path(self):
        for seed in range(8):
            first, plan_a = run_once(seed)
            second, plan_b = run_once(seed)
            assert outcome_signature(first) == outcome_signature(second)
            assert plan_a.stats() == plan_b.stats()

    def test_seeds_cover_distinct_paths(self):
        """Across a seed range, at least two different fault counts occur
        (the plan is seed-sensitive, not a constant schedule).  The rate
        is kept low so individual attempts can complete — a successful
        EGCWA inference needs several consecutive clean SAT calls."""
        signatures = {
            run_once(seed, sat_fault_rate=0.15)[0].faults
            for seed in range(12)
        }
        assert len(signatures) > 1

    def test_channels_are_independent(self):
        """Turning the latency channel on must not shift which SAT calls
        fault: each channel draws from its own seeded stream."""
        recorded = []
        quiet, _ = run_once(5)
        noisy_plan = FaultPlan(
            seed=5,
            sat_fault_rate=0.5,
            latency_ms=1.0,
            sleeper=lambda s: recorded.append(s),
        )
        db = parse_database(DB_TEXT)
        query = parse_formula(QUERY_TEXT)
        semantics = get_semantics(
            "egcwa", engine="resilient",
            retry=RetryPolicy(max_retries=2, backoff_ms=0),
        )
        with fault_plan(noisy_plan):
            noisy = semantics.run("infers", db, query)
        assert outcome_signature(noisy) == outcome_signature(quiet)
        assert recorded  # latency really was injected (via the sleeper)

    def test_plan_reprs_do_not_leak_state(self):
        plan = FaultPlan(seed=3, sat_fault_rate=0.25)
        assert "seed=3" in repr(plan)


# ----------------------------------------------------------------------
# The degradation ladder, rung by rung
# ----------------------------------------------------------------------
class TestLadder:
    def test_fail_n_times_then_succeed(self):
        """max_sat_faults turns the plan into an exact N-failure schedule,
        so the retry rung alone recovers (no fallback involved)."""
        outcome, plan = run_once(
            seed=0, sat_fault_rate=1.0, max_retries=3, max_sat_faults=2
        )
        assert outcome.status is Status.OK
        assert outcome.engine_used == "oracle"
        assert outcome.attempts == 3  # two faulted attempts + success
        assert outcome.faults == 2
        assert plan.sat_faults == 2
        assert RUNTIME_STATS.retries == 2
        assert RUNTIME_STATS.fallbacks == 0

    def test_persistent_faults_degrade_to_brute_fallback(self):
        outcome, _ = run_once(seed=0, sat_fault_rate=1.0, max_retries=1)
        assert outcome.status is Status.DEGRADED
        assert outcome.engine_used == "brute"
        # The value is still the exact answer.
        expected = get_semantics("egcwa").infers(
            parse_database(DB_TEXT), parse_formula(QUERY_TEXT)
        )
        assert outcome.value == expected
        assert RUNTIME_STATS.fallbacks == 1

    def test_no_fallback_fails_closed(self):
        semantics = get_semantics(
            "egcwa",
            engine="resilient",
            fallback=None,
            retry=RetryPolicy(max_retries=1, backoff_ms=0),
        )
        db = parse_database(DB_TEXT)
        with fault_plan(FaultPlan(seed=0, sat_fault_rate=1.0)):
            outcome = semantics.run("infers", db, parse_formula(QUERY_TEXT))
        assert outcome.status is Status.FAILED
        assert outcome.value is None
        assert isinstance(outcome.exception, FaultInjected)
        # The strict API surfaces the underlying exception.
        with fault_plan(FaultPlan(seed=0, sat_fault_rate=1.0)):
            with pytest.raises(FaultInjected):
                semantics.infers(db, parse_formula(QUERY_TEXT))

    def test_retry_backoff_uses_policy_sleeper(self):
        delays = []
        semantics = get_semantics(
            "egcwa",
            engine="resilient",
            retry=RetryPolicy(
                max_retries=2,
                backoff_ms=10,
                backoff_factor=3.0,
                sleeper=delays.append,
            ),
        )
        db = parse_database(DB_TEXT)
        with fault_plan(FaultPlan(seed=0, sat_fault_rate=1.0)):
            semantics.run("infers", db, parse_formula(QUERY_TEXT))
        assert delays == [0.010, 0.030]  # exponential, in seconds


# ----------------------------------------------------------------------
# Fault-free resilient == oracle on the differential corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime", sorted(COUNTS))
def test_fault_free_resilient_matches_oracle(regime):
    """With no fault plan installed and a neutral budget, the resilient
    engine answers every corpus query exactly as the uncached oracle —
    the wrapper adds governance, never drift."""
    for seed in range(COUNTS[regime]):
        db = build_db(regime, seed)
        query = random_query_formula(
            sorted(db.vocabulary), depth=2, seed=seed
        )
        some_atom = sorted(db.vocabulary)[0]
        literals = [Literal.pos(some_atom), Literal.neg(some_atom)]
        for name in SEMANTICS_FOR[regime]:
            oracle = get_semantics(name, engine="oracle")
            resilient = get_semantics(name, engine="resilient")
            assert resilient.infers(db, query) == oracle.infers(db, query), (
                regime, seed, name, "infers")
            for literal in literals:
                assert resilient.infers_literal(db, literal) == (
                    oracle.infers_literal(db, literal)
                ), (regime, seed, name, "infers_literal", literal)
            assert resilient.has_model(db) == oracle.has_model(db), (
                regime, seed, name, "has_model")
    assert RUNTIME_STATS.sat_faults_injected == 0
    assert RUNTIME_STATS.retries == 0
    assert RUNTIME_STATS.fallbacks == 0


def test_fault_free_resilient_matches_oracle_model_sets():
    """model_set agreement on a corpus subset (the expensive surface)."""
    for regime in sorted(COUNTS):
        for seed in range(5):
            db = build_db(regime, seed)
            for name in SEMANTICS_FOR[regime][:4]:
                oracle = get_semantics(name, engine="oracle")
                resilient = get_semantics(name, engine="resilient")
                assert resilient.model_set(db) == oracle.model_set(db), (
                    regime, seed, name)


def test_resilient_outcomes_counted_per_instance():
    semantics = get_semantics("egcwa", engine="resilient")
    db = parse_database(DB_TEXT)
    semantics.run("has_model", db)
    semantics.run("has_model", db)
    assert semantics.stats()["ok"] == 2
    assert semantics.stats()["failed"] == 0
