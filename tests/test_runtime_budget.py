"""Budget-governance tests (repro.runtime.budget + the hooked layers).

Three claims are pinned here:

* budgets trip at the *right layer* for each semantics family — SAT-call
  ceilings in the oracle engines, node ceilings in the brute enumerator,
  deadlines inside the CDCL main loop and the Σ₂ᵖ machinery;
* a tripped :class:`~repro.runtime.budget.BudgetExceeded` carries an
  *accurate* resource account (the counters include the tripping
  attempt: ceiling ``N`` trips with usage ``N + 1``);
* a *generous* budget changes no answers — the governed oracle engines
  agree with the ungoverned ones across the seeded differential corpus;
* a budget-exhausted evaluation returns/raises within **2×** the
  requested wall-clock deadline (the acceptance bound).
"""

from __future__ import annotations

import time

import pytest

from repro.logic.parser import parse_database, parse_formula
from repro.runtime import (
    NODE_CHECK_INTERVAL,
    RUNTIME_STATS,
    Budget,
    BudgetExceeded,
    Status,
    budget_scope,
    check_deadline,
    current_scope,
    note_nodes,
    note_sat_call,
)
from repro.semantics import get_semantics
from repro.workloads import random_positive_db, random_query_formula

from test_differential import COUNTS, SEMANTICS_FOR, build_db


@pytest.fixture(autouse=True)
def _reset_runtime_stats():
    RUNTIME_STATS.reset()
    yield
    RUNTIME_STATS.reset()


def php_clauses(pigeons, holes):
    """The (unsatisfiable for pigeons > holes) pigeonhole CNF — hard for
    resolution-based solvers, so a deadline reliably cuts it off."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


# ----------------------------------------------------------------------
# Budget and scope unit behaviour
# ----------------------------------------------------------------------
class TestBudgetObject:
    def test_negative_limits_rejected(self):
        for kwargs in (
            {"wall_ms": -1}, {"max_sat_calls": -1}, {"max_nodes": -1},
        ):
            with pytest.raises(ValueError):
                Budget(**kwargs)

    def test_unbounded_default(self):
        assert Budget().unbounded
        assert not Budget(max_sat_calls=3).unbounded

    def test_scaled_scales_only_set_limits(self):
        budget = Budget(wall_ms=100, max_sat_calls=10).scaled(2)
        assert budget.wall_ms == 200
        assert budget.max_sat_calls == 20
        assert budget.max_nodes is None

    def test_render_marks_unbounded(self):
        assert Budget(max_sat_calls=5).render() == (
            "wall -, sat-calls 5, nodes -"
        )


class TestBudgetScope:
    def test_hooks_are_noops_without_scope(self):
        assert current_scope() is None
        note_sat_call()
        note_nodes(10)
        check_deadline()  # nothing raises

    def test_sat_call_ceiling_trips_with_inclusive_count(self):
        with budget_scope(Budget(max_sat_calls=5)) as scope:
            for _ in range(5):
                note_sat_call()
            with pytest.raises(BudgetExceeded) as info:
                note_sat_call()
        assert info.value.resource == "sat_calls"
        # The account includes the tripping attempt: ceiling 5, usage 6.
        assert info.value.usage.sat_calls == 6
        assert scope.sat_calls == 6

    def test_node_ceiling_trips_with_inclusive_count(self):
        with budget_scope(Budget(max_nodes=10)):
            with pytest.raises(BudgetExceeded) as info:
                for _ in range(11):
                    note_nodes(1)
        assert info.value.resource == "nodes"
        assert info.value.usage.nodes == 11

    def test_wall_deadline_trips(self):
        with budget_scope(Budget(wall_ms=1)):
            time.sleep(0.005)
            with pytest.raises(BudgetExceeded) as info:
                check_deadline()
        assert info.value.resource == "wall_ms"
        assert info.value.usage.elapsed_ms >= 1

    def test_node_wall_check_is_periodic(self):
        # Under the check interval no clock is consulted, so an expired
        # deadline goes unnoticed by note_nodes alone...
        with budget_scope(Budget(wall_ms=1)):
            time.sleep(0.005)
            note_nodes(NODE_CHECK_INTERVAL - 1)
            # ...until the interval-th node.
            with pytest.raises(BudgetExceeded):
                note_nodes(1)

    def test_nested_scopes_cascade_to_parent(self):
        with budget_scope(Budget(max_sat_calls=3)):
            with pytest.raises(BudgetExceeded) as info:
                with budget_scope(Budget()):  # inner unbounded
                    for _ in range(4):
                        note_sat_call()
        assert info.value.resource == "sat_calls"

    def test_inner_tighter_scope_trips_first(self):
        with budget_scope(Budget(max_sat_calls=100)) as outer:
            with budget_scope(Budget(max_sat_calls=1)) as inner:
                note_sat_call()
                with pytest.raises(BudgetExceeded):
                    note_sat_call()
        assert inner.sat_calls == 2
        assert outer.sat_calls == 2  # cascade kept the parent accurate

    def test_exceeded_carries_budget_and_counts_stats(self):
        budget = Budget(max_sat_calls=1)
        with budget_scope(budget):
            note_sat_call()
            with pytest.raises(BudgetExceeded) as info:
                note_sat_call()
        assert info.value.budget is budget
        assert RUNTIME_STATS.budgets_exceeded == 1
        assert RUNTIME_STATS.scopes_entered == 1


# ----------------------------------------------------------------------
# The right layer trips for each engine family
# ----------------------------------------------------------------------
class TestRightLayer:
    def setup_method(self):
        self.db = parse_database("a | b. c :- a. d | e :- b.")
        self.query = parse_formula("~a | ~b")

    def test_oracle_engine_trips_on_sat_calls(self):
        semantics = get_semantics("gcwa", engine="oracle")
        with budget_scope(Budget(max_sat_calls=1)):
            with pytest.raises(BudgetExceeded) as info:
                semantics.infers(self.db, self.query)
        assert info.value.resource == "sat_calls"
        assert info.value.usage.sat_calls == 2

    def test_brute_engine_trips_on_nodes(self):
        semantics = get_semantics("gcwa", engine="brute")
        with budget_scope(Budget(max_nodes=4)):
            with pytest.raises(BudgetExceeded) as info:
                semantics.infers(self.db, self.query)
        assert info.value.resource == "nodes"
        # Brute never touches the SAT layer, so only nodes accumulated.
        assert info.value.usage.sat_calls == 0
        assert info.value.usage.nodes == 5

    def test_theta_machine_trips_on_sat_calls(self):
        from repro.complexity.machines import theta_inference

        with budget_scope(Budget(max_sat_calls=3)):
            with pytest.raises(BudgetExceeded) as info:
                theta_inference(self.db, self.query)
        assert info.value.resource == "sat_calls"

    def test_sigma2_oracle_checks_deadline_per_query(self):
        from repro.complexity.oracles import Sigma2Oracle

        oracle = Sigma2Oracle()
        with budget_scope(Budget(wall_ms=1)):
            time.sleep(0.005)
            with pytest.raises(BudgetExceeded) as info:
                oracle.query(self.db, self.query)
        assert info.value.resource == "wall_ms"
        # The deadline is checked before the query is counted.
        assert oracle.queries == 0

    def test_dpll_counts_search_nodes(self):
        from repro.sat.dpll import solve_dpll

        with budget_scope(Budget()) as scope:
            solve_dpll(php_clauses(4, 3))
        assert scope.nodes > 0

# ----------------------------------------------------------------------
# Deadline acceptance: cut off within 2x the requested wall clock
# ----------------------------------------------------------------------
class TestDeadlineWithinTwofold:
    WALL_MS = 100.0

    def _assert_cutoff(self, fn):
        start = time.monotonic()
        with budget_scope(Budget(wall_ms=self.WALL_MS)):
            with pytest.raises(BudgetExceeded) as info:
                fn()
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert info.value.resource == "wall_ms"
        assert elapsed_ms < 2 * self.WALL_MS, elapsed_ms
        return info.value

    def test_cdcl_cut_off_mid_search(self):
        from repro.sat.cdcl import CdclSolver

        solver = CdclSolver()
        for clause in php_clauses(8, 7):  # ~seconds if left alone
            solver.add_clause(clause)
        self._assert_cutoff(solver.solve)
        # The deadline poll backtracked to level 0: still reusable.
        assert solver.add_clause([1])

    def test_brute_enumeration_cut_off(self):
        db = random_positive_db(18, 20, seed=0)  # 2^18 candidates
        semantics = get_semantics("gcwa", engine="brute")
        error = self._assert_cutoff(lambda: semantics.model_set(db))
        assert error.usage.nodes > 0

    def test_resilient_outcome_within_twofold(self):
        db = random_positive_db(18, 20, seed=1)
        semantics = get_semantics(
            "gcwa", engine="resilient", budget=Budget(wall_ms=self.WALL_MS)
        )
        start = time.monotonic()
        outcome = semantics.run("model_set", db)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert outcome.status is Status.TIMEOUT
        assert outcome.partial is not None
        assert elapsed_ms < 2 * self.WALL_MS, elapsed_ms


# ----------------------------------------------------------------------
# A generous budget changes no answers
# ----------------------------------------------------------------------
GENEROUS = Budget(wall_ms=60_000, max_sat_calls=200_000, max_nodes=5_000_000)


@pytest.mark.parametrize("regime", sorted(COUNTS))
def test_generous_budget_changes_no_answers(regime):
    """Every (regime, seed) database: the oracle engines under a generous
    budget give byte-identical answers to the ungoverned oracle engines
    on formula inference and model existence."""
    for seed in range(0, COUNTS[regime], 2):  # every other seed: 110 DBs
        db = build_db(regime, seed)
        query = random_query_formula(
            sorted(db.vocabulary), depth=2, seed=seed
        )
        for name in SEMANTICS_FOR[regime]:
            semantics = get_semantics(name, engine="oracle")
            expected_infers = semantics.infers(db, query)
            expected_has = semantics.has_model(db)
            with budget_scope(GENEROUS) as scope:
                assert semantics.infers(db, query) == expected_infers, (
                    regime, seed, name, "infers")
                assert semantics.has_model(db) == expected_has, (
                    regime, seed, name, "has_model")
            assert scope.exceeded is None


def test_generous_budget_brute_engines_agree():
    """Same claim for the node-governed brute engines (smaller sample:
    brute is the expensive side)."""
    for seed in range(0, 10):
        db = build_db("positive", seed)
        query = random_query_formula(
            sorted(db.vocabulary), depth=2, seed=seed
        )
        for name in ("gcwa", "egcwa", "dsm"):
            semantics = get_semantics(name, engine="brute")
            expected = semantics.infers(db, query)
            with budget_scope(GENEROUS):
                assert semantics.infers(db, query) == expected
