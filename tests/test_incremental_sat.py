"""Unit tests for the incremental SAT backend.

Covers the selector-literal retraction mechanics (no stale temporary
clauses survive a closed scope, and the scope's clauses are physically
reclaimed rather than left inert), selector recycling, scope nesting and
independence, the process-wide solver pool's checkout/reuse semantics,
and the per-query solver-statistics deltas that sessions report.
"""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from repro.logic.atoms import Literal
from repro.logic.parser import parse_database, parse_formula
from repro.sat.cdcl import CdclSolver
from repro.sat.incremental import (
    DEFAULT_POOL_MAXSIZE,
    SOLVER_POOL,
    IncrementalSatSolver,
    acquire_solver,
    clear_solver_pool,
    configure_solver_pool,
    pooled_scope,
    release_solver,
)
from repro.session import DatabaseSession


@pytest.fixture(autouse=True)
def fresh_pool():
    clear_solver_pool()
    yield
    clear_solver_pool()


DB = parse_database("a | b. c :- a. c :- b.")


# ----------------------------------------------------------------------
# Scope retraction
# ----------------------------------------------------------------------
class TestScopeRetraction:
    def test_closed_scope_no_longer_constrains(self):
        solver = IncrementalSatSolver(DB)
        with solver.scope() as scope:
            scope.add_unit(Literal.pos("a"))
            scope.add_unit(Literal.neg("b"))
            assert scope.solve()
            assert scope.model(restrict_to=DB.vocabulary) == frozenset(
                {"a", "c"}
            )
        # The retired scope's units must not leak into later queries.
        with solver.scope() as scope:
            scope.add_unit(Literal.neg("a"))
            assert scope.solve(), "stale ~b unit would make this UNSAT"
            assert "b" in scope.model(restrict_to=DB.vocabulary)

    def test_contradictory_scope_leaves_solver_usable(self):
        solver = IncrementalSatSolver(DB)
        with solver.scope() as scope:
            scope.add_unit(Literal.pos("a"))
            scope.add_unit(Literal.neg("a"))
            assert not scope.solve()
        with solver.scope() as scope:
            assert scope.solve(), "contradiction must die with its scope"

    def test_clauses_physically_reclaimed(self):
        solver = IncrementalSatSolver(DB)
        core = solver._sat._core
        baseline = len(core._clauses)
        for _ in range(10):
            with solver.scope() as scope:
                scope.add_formula(parse_formula("~c | (a & b)"))
                scope.solve()
        assert len(core._clauses) == baseline
        assert solver.clauses_reclaimed > 0
        # No surviving clause (input or learned) mentions any selector.
        selector_vars = {
            solver.variables.number(name)
            for name in solver.variables.atoms()
            if name.startswith("__inc")
        }
        for clause in core._clauses + core._learned:
            assert not any(
                abs(lit) in selector_vars for lit in clause.literals
            )

    def test_selectors_recycled_across_scopes(self):
        solver = IncrementalSatSolver(DB)
        for _ in range(50):
            with solver.scope() as scope:
                scope.add_unit(Literal.pos("a"))
                scope.solve()
        # Sequential scopes reuse the same selector variable instead of
        # allocating one dead variable per retired scope.
        assert solver._selector_count <= 2
        assert solver.scopes_retired == 50

    def test_formula_retraction_via_tseitin(self):
        solver = IncrementalSatSolver(DB)
        with solver.scope() as scope:
            scope.add_formula(parse_formula("c"), positive=False)
            assert not scope.solve(), "DB |= c"
        with solver.scope() as scope:
            assert scope.solve(), "~c must have been retracted"

    def test_closed_scope_rejects_new_clauses(self):
        solver = IncrementalSatSolver(DB)
        with solver.scope() as scope:
            pass
        with pytest.raises(SolverError):
            scope.add_unit(Literal.pos("a"))
        with pytest.raises(SolverError):
            scope.solve()


class TestScopeNesting:
    def test_child_enforces_parent(self):
        solver = IncrementalSatSolver(DB)
        with solver.scope() as outer:
            outer.add_unit(Literal.pos("a"))
            with outer.scope() as inner:
                inner.add_unit(Literal.neg("a"))
                assert not inner.solve()
            assert outer.solve(), "child contradiction retracted"

    def test_sibling_scopes_are_independent(self):
        solver = IncrementalSatSolver(DB)
        first = solver.scope().__enter__()
        first.add_unit(Literal.pos("a"))
        with solver.scope() as second:
            second.add_unit(Literal.neg("a"))
            assert second.solve(), "first scope's unit not enforced"
        assert first.solve()
        first.close()


# ----------------------------------------------------------------------
# CDCL clause removal
# ----------------------------------------------------------------------
class TestRemoveClausesWith:
    def test_removes_input_and_watchlist_entries(self):
        core = CdclSolver()
        core.add_clause([-1, 2])
        core.add_clause([-1, 3])
        core.add_clause([2, 3])
        assert core.remove_clauses_with(-1) == 2
        assert len(core._clauses) == 1
        for watchers in core._watches.values():
            for clause in watchers:
                assert -1 not in clause.literals

    def test_falsified_guard_is_rejected(self):
        core = CdclSolver()
        core.add_clause([-1, 2])
        core.add_clause([1])  # level-0 fact: guard literal now false
        with pytest.raises(SolverError):
            core.remove_clauses_with(-1)

    def test_unallocated_literal_is_noop(self):
        core = CdclSolver()
        core.add_clause([1, 2])
        assert core.remove_clauses_with(-99) == 0

    def test_solver_still_correct_after_removal(self):
        core = CdclSolver()
        core.add_clause([1, 2])
        core.add_clause([-3, -1])
        core.add_clause([-3, -2])
        assert not core.solve([3]), "exclusions conflict with [1, 2]"
        assert core.remove_clauses_with(-3) == 2
        assert core.solve([3]), "guarded exclusions removed"
        assert core.solve([1]), "base clause survives"


# ----------------------------------------------------------------------
# Solver pool
# ----------------------------------------------------------------------
class TestSolverPool:
    def test_sequential_acquire_reuses(self):
        key1, s1 = acquire_solver(DB, context=("db",))
        release_solver(key1, s1)
        key2, s2 = acquire_solver(DB, context=("db",))
        release_solver(key2, s2)
        assert s1 is s2
        stats = SOLVER_POOL.stats()
        assert stats["solvers_created"] == 1
        assert stats["solver_reuses"] == 1

    def test_concurrent_checkout_gets_distinct_instances(self):
        key1, s1 = acquire_solver(DB, context=("db",))
        key2, s2 = acquire_solver(DB, context=("db",))
        assert s1 is not s2
        release_solver(key1, s1)
        release_solver(key2, s2)

    def test_maxsize_zero_never_pools(self, cold_pool):
        """A pool with ``maxsize`` 0 builds a solver on every acquire and
        discards it on every release, answers like the warm pool, and
        still charges each checkout's CDCL work to the query."""
        for _ in range(3):
            key, solver = acquire_solver(DB, context=("db",))
            release_solver(key, solver)
        stats = SOLVER_POOL.stats()
        assert stats["solvers_created"] == stats["solvers_discarded"] == 3
        assert stats["solvers_pooled"] == 0
        assert stats["solver_reuses"] == 0
        cold = DatabaseSession(DB, default_semantics="egcwa")
        answers = [cold.ask(q) for q in ("~a | ~b", "c", "a")]
        assert SOLVER_POOL.stats()["solvers_pooled"] == 0
        for answer in answers:
            assert answer.solver_stats["solve_calls"] > 0
        configure_solver_pool(DEFAULT_POOL_MAXSIZE)
        warm = DatabaseSession(DB, default_semantics="egcwa")
        assert [warm.ask(q).verdict for q in ("~a | ~b", "c", "a")] == [
            answer.verdict for answer in answers
        ]
        assert SOLVER_POOL.stats()["solvers_pooled"] > 0

    def test_structurally_equal_databases_share_solvers(self):
        other = parse_database("a | b. c :- a. c :- b.")
        with pooled_scope(DB, context=("db",)) as scope:
            scope.solve()
        with pooled_scope(other, context=("db",)) as scope:
            scope.solve()
        assert SOLVER_POOL.stats()["solver_reuses"] == 1

    def test_distinct_contexts_do_not_collide(self):
        with pooled_scope(DB, context=("db",)) as scope:
            scope.solve()
        with pooled_scope(DB, context=("other",)) as scope:
            scope.solve()
        stats = SOLVER_POOL.stats()
        assert stats["solvers_created"] == 2
        assert stats["solver_reuses"] == 0

    def test_warm_and_cold_answers_agree(self):
        query = parse_formula("c")
        verdicts = []
        for _ in range(3):
            with pooled_scope(DB, context=("db",)) as scope:
                scope.add_formula(query, positive=False)
                verdicts.append(not scope.solve())
        assert verdicts == [True, True, True]


# ----------------------------------------------------------------------
# Per-query statistics deltas
# ----------------------------------------------------------------------
class TestSessionSolverStats:
    def test_answers_carry_per_query_deltas(self):
        session = DatabaseSession(DB, default_semantics="egcwa")
        first = session.ask("~a | ~b")
        second = session.ask("c")
        assert first.solver_stats is not None
        assert second.solver_stats is not None
        # Each query's delta reflects only its own spend: the session
        # total is the sum of the deltas, not the pool's lifetime count.
        totals = session.stats()
        for name in ("solve_calls", "propagations"):
            assert totals[f"solver_{name}"] == (
                first.solver_stats[name] + second.solver_stats[name]
            )

    def test_second_query_delta_excludes_first(self):
        session = DatabaseSession(DB, default_semantics="egcwa")
        first = session.ask("~a | ~b")
        second = session.ask("~a | ~b")
        assert first.solver_stats["solve_calls"] > 0
        # A warm (or memoized) second run never reports the lifetime
        # total, which would be at least the two queries combined.
        assert second.solver_stats["solve_calls"] < (
            first.solver_stats["solve_calls"]
            + second.solver_stats["solve_calls"]
            + 1
        )
        assert session.stats()["queries_answered"] == 2
