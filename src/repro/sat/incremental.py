"""Incremental SAT: persistent solvers, scoped assertions, a process pool.

Every oracle-backed decision procedure in this package is "polynomially
many NP-oracle calls" against *closely related* instances: the same
database theory plus a per-query side condition, a shrink constraint, or
a growing set of blocking clauses.  Historically each call built a fresh
:class:`~repro.sat.solver.SatSolver`, re-translated the database and
threw away every learned clause.  This module keeps one CDCL instance
alive per ``(database, context)`` instead:

* :class:`IncrementalSatSolver` — a persistent solver whose *permanent*
  clauses (the database, a ``setup``'s own) are asserted once, and whose
  *temporary* clauses live in :class:`Scope` objects.  A scope guards
  every clause with a selector literal (MiniSat-style): while the scope
  is open its selector is passed as an assumption, so the clauses are
  enforced; closing the scope asserts the selector's negation and then
  physically deletes every clause mentioning it (guarded assertions and
  the learned clauses derived from them alike — each provably contains
  the negated selector), so a retired scope leaves no watch-list
  footprint.  Learned clauses over the permanent theory survive and
  keep pruning later queries.

* :class:`SolverPool` — a process-wide bounded LRU of persistent solvers
  keyed like the engine cache (structural database hash + context), so
  repeated queries against the same database hit a warm solver complete
  with its learned clauses, VSIDS activities and saved phases.  Solvers
  are *checked out* while in use (concurrent users of the same key get
  independent instances) and returned on release.

* :func:`pooled_scope` — the one-liner most call sites use, with
  :meth:`Scope.each_model`, the package's one solve–read–block loop::

      with pooled_scope(db) as sat:          # warm solver, fresh scope
          sat.add_formula(Not(query))        # temporary, auto-retracted
          for model in sat.each_model(sorted(db.vocabulary)):
              ...                            # blocked on resume, in scope

  A pool configured with ``maxsize`` 0 (:func:`configure_solver_pool`)
  parks nothing: every checkout builds a cold solver, with the identical
  interface and accounting.

Budget ticks and fault injection are untouched: every ``solve`` still
goes through :meth:`SatSolver.solve`, which ticks the active
:class:`~repro.runtime.budget.BudgetScope` and consults the active fault
plan, so a pooled call is governed exactly like a fresh one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SolverError
from ..logic.atoms import Literal
from ..logic.cnf import Cnf, tseitin
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..obs.accounting import charge_solver_stats, open_windows
from ..obs.metrics import METRICS
from ..runtime.budget import check_deadline
from .solver import SatSolver

#: Default bound on pooled (parked) solvers across all keys.
DEFAULT_POOL_MAXSIZE = 128

#: A solver that has retired this many scopes carries enough inert
#: clauses and dead selector variables that rebuilding beats reusing;
#: the pool discards it on release instead of parking it.
RETIRED_SCOPE_LIMIT = 2048


def blocking_clause(
    model: Interpretation, project: Iterable[str]
) -> List[Literal]:
    """The clause excluding exactly the models whose ``project``-restriction
    equals ``model``'s (literals in ``project`` order)."""
    return [Literal.neg(a) if a in model else Literal.pos(a) for a in project]


class Scope:
    """A retractable group of temporary clauses on a persistent solver.

    All clauses added through a scope are guarded by the scope's selector
    literal; :meth:`solve` assumes the selector (and every enclosing
    scope's), so the clauses are enforced exactly while the scope is
    open.  :meth:`close` retracts the whole group by permanently
    asserting the negated selector and deleting every clause that
    mentions it — theory-level learned clauses survive, the temporary
    constraints (and the learned clauses that depended on them, by then
    vacuous) do not.

    Scopes nest: :meth:`scope` opens a child whose queries enforce both
    levels (the shrink-within-condition pattern).  Independent scopes on
    the same solver do not interact — an unassumed selector leaves its
    clauses unenforced.
    """

    __slots__ = (
        "_solver",
        "selector",
        "_parents",
        "_aux_atoms",
        "closed",
        "clauses_added",
    )

    def __init__(
        self,
        solver: "IncrementalSatSolver",
        parents: Tuple["Scope", ...] = (),
    ):
        self._solver = solver
        self.selector = solver._fresh_selector()
        self._parents = parents
        self._aux_atoms: List[str] = []
        self.closed = False
        self.clauses_added = 0
        if not parents:
            # A top-level scope marks a new query: drop the saved
            # phases (biased toward the previous query's model) so a
            # warm solver starts from the same minimality-friendly
            # false bias as a fresh one.  Nested scopes keep phases —
            # within one query the bias toward recent models helps.
            solver._sat.reset_phases()

    # ------------------------------------------------------------------
    # Assertions (all selector-guarded, hence temporary)
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise SolverError("scope is closed; open a new one")

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Assert a clause for the lifetime of this scope."""
        self._check_open()
        self._solver._sat.add_clause([-self.selector, *literals])
        self.clauses_added += 1

    def add_cnf(self, cnf: Cnf) -> None:
        """Assert every clause of a CNF for the lifetime of this scope."""
        for clause in cnf:
            self.add_clause(clause)

    def add_unit(self, literal: Literal) -> None:
        """Assert a single literal for the lifetime of this scope."""
        self.add_clause([literal])

    def add_formula(self, formula: Formula, positive: bool = True) -> None:
        """Assert ``formula`` (or its negation) for the lifetime of this
        scope, via a selector-guarded Tseitin encoding.  Definition atoms
        are allocated away from everything the solver has ever interned,
        so successive scopes never collide."""
        self._check_open()
        clauses, root, aux = tseitin(
            formula, avoid=self._solver.variables.atoms()
        )
        self._aux_atoms.extend(aux)
        for clause in clauses:
            self.add_clause(clause)
        self.add_clause([root if positive else -root])

    def add_database(self, db: DisjunctiveDatabase) -> None:
        """Assert a database's classical clause form for the lifetime of
        this scope (used by multi-copy constructions; the *base* database
        of a solver is permanent instead)."""
        from ..engine.cache import classical_clauses_for

        for atom in sorted(db.vocabulary):
            self._solver.variables.intern(atom)
        for literals in classical_clauses_for(db):
            self.add_clause(literals)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @property
    def variables(self):
        """The underlying solver's atom/variable map."""
        return self._solver.variables

    def solve(self, assumptions: Iterable[Literal] = ()) -> bool:
        """Decide satisfiability of permanent clauses + this scope (+ its
        ancestors) under the extra assumptions."""
        self._check_open()
        selectors = [self.selector]
        selectors.extend(parent.selector for parent in self._parents)
        return self._solver.solve(selectors + list(assumptions))

    def model(
        self, restrict_to: Optional[Iterable[str]] = None
    ) -> Interpretation:
        """The model found by the last successful :meth:`solve`."""
        return self._solver.model(restrict_to=restrict_to)

    def each_model(
        self,
        project: Sequence[str],
        assumptions: Sequence[Literal] = (),
        restrict_to: Optional[Iterable[str]] = None,
    ) -> Iterator[Interpretation]:
        """The models of this scope under ``assumptions``, one SAT call
        each, read over ``restrict_to`` (default ``project``, which it
        must contain) — the package's one solve–read–block loop.  Asking
        for the next model blocks the last one's ``project``-restriction
        in this scope, so an empty ``project`` yields at most one model;
        stopping early adds no block."""
        read = project if restrict_to is None else restrict_to
        while True:
            check_deadline()
            if not self.solve(assumptions):
                return
            model = self.model(restrict_to=read)
            yield model
            block = blocking_clause(model, project)
            if not block:
                return
            self.add_clause(block)

    # ------------------------------------------------------------------
    def scope(self) -> "_ScopeContext":
        """Open a child scope (its queries also enforce this scope)."""
        return _ScopeContext(self._solver, parents=(self, *self._parents))

    def close(self) -> None:
        """Retract every clause of this scope, permanently and cheaply.

        The negated selector is asserted as a permanent unit, which
        makes every clause mentioning it satisfied forever; those
        clauses — the scope's guarded assertions plus every learned
        clause derived from them (each necessarily contains the negated
        selector, since nothing ever implies a selector positively) —
        are then physically deleted, so retired scopes leave no
        footprint in the solver's watch lists.  Learned clauses over
        the permanent theory alone survive and keep pruning."""
        if self.closed:
            return
        self.closed = True
        sat = self._solver._sat
        self._solver.clauses_reclaimed += sat.remove_clauses_with(
            -self.selector
        )
        # The scope's Tseitin definition atoms are unconstrained once
        # their clauses are gone; pin them false so the branching
        # heuristic never has to assign retired scopes' dead variables.
        for atom in self._aux_atoms:
            sat.add_clause([Literal.neg(atom)])
        # With the clauses physically gone the selector variable is
        # unconstrained; recycle it for the next scope so long-lived
        # solvers don't accumulate a dead variable per retired scope.
        # (A selector propagated false at level 0 stays assigned — its
        # guarded clause forced the retraction early — and cannot be
        # reused.)
        if sat.literal_value(self.selector) == 0:
            self._solver._free_selectors.append(self.selector)
        self._solver.scopes_retired += 1


class _ScopeContext:
    """Context manager yielding a fresh :class:`Scope` and closing it."""

    __slots__ = ("_solver", "_parents", "_scope")

    def __init__(
        self,
        solver: "IncrementalSatSolver",
        parents: Tuple[Scope, ...] = (),
    ):
        self._solver = solver
        self._parents = parents
        self._scope: Optional[Scope] = None

    def __enter__(self) -> Scope:
        self._scope = Scope(self._solver, parents=self._parents)
        self._solver.scopes_opened += 1
        return self._scope

    def __exit__(self, *exc) -> None:
        if self._scope is not None:
            self._scope.close()


class IncrementalSatSolver:
    """A persistent SAT solver for one ``(database, context)`` pair.

    The database's classical clause form is asserted *permanently* at
    construction; everything query-specific goes through :meth:`scope`.
    The CDCL core's learned clauses, activities and phase state
    accumulate across queries — that accumulation is the speedup.

    Args:
        db: the base database (``None`` for a bare solver).
    """

    def __init__(self, db: Optional[DisjunctiveDatabase] = None):
        self._sat = SatSolver()
        self.db = db
        if db is not None:
            self._sat.add_database(db)
        self._selector_count = 0
        self._free_selectors: List[Literal] = []
        self.scopes_opened = 0
        self.scopes_retired = 0
        self.clauses_reclaimed = 0
        self.queries = 0
        #: Stamp of the checkout window this solver was last handed out
        #: under (see :func:`checkout_token`); ``None`` outside windows.
        self._last_checkout_token: Optional[object] = None
        #: ``(observation windows, core stats)`` recorded by the pool at
        #: checkout; :meth:`SolverPool.release` charges the difference.
        self._charge: Optional[Tuple[tuple, Dict[str, int]]] = None

    # ------------------------------------------------------------------
    @property
    def variables(self):
        """The atom/variable map (shared with every scope)."""
        return self._sat.variables

    def _fresh_selector(self) -> Literal:
        if self._free_selectors:
            return self._free_selectors.pop()
        while True:
            name = f"__inc{self._selector_count}"
            self._selector_count += 1
            if name not in self._sat.variables:
                return Literal.pos(name)

    # ------------------------------------------------------------------
    # Permanent assertions
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Permanently assert a clause (part of the theory forever)."""
        self._sat.add_clause(literals)

    def add_cnf(self, cnf: Cnf) -> None:
        """Permanently assert every clause of a CNF."""
        self._sat.add_cnf(cnf)

    def add_unit(self, literal: Literal) -> None:
        """Permanently assert a single literal."""
        self._sat.add_unit(literal)

    def add_database(self, db: DisjunctiveDatabase) -> None:
        """Permanently assert a database's classical clause form (used by
        ``setup`` callables installing multi-copy constructions)."""
        self._sat.add_database(db)

    def add_formula(self, formula: Formula, positive: bool = True) -> None:
        """Permanently assert a formula (Tseitin-encoded); for theories
        that are formulas by nature, e.g. a Clark completion."""
        self._sat.add_formula(formula, positive=positive)

    def intern(self, atoms: Iterable[str]) -> None:
        """Register atoms so they take part in models."""
        for atom in atoms:
            self._sat.variables.intern(atom)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[Literal] = ()) -> bool:
        """Decide satisfiability of the permanent clauses under the given
        assumptions (scope selectors included by :meth:`Scope.solve`).
        Ticks budgets/faults exactly like a fresh solver."""
        self.queries += 1
        return self._sat.solve(assumptions)

    def model(
        self, restrict_to: Optional[Iterable[str]] = None
    ) -> Interpretation:
        """The model found by the last successful :meth:`solve`."""
        return self._sat.model(restrict_to=restrict_to)

    def scope(self) -> _ScopeContext:
        """Open a fresh top-level scope (use as a context manager)."""
        return _ScopeContext(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def num_learned(self) -> int:
        """Learned clauses currently retained by the CDCL core."""
        return len(self._sat._core._learned)

    def core_stats(self) -> Dict[str, int]:
        """The CDCL core's cumulative search statistics."""
        return self._sat.stats()

    def stats(self) -> Dict[str, int]:
        """Core statistics plus scope/selector accounting."""
        stats = self.core_stats()
        stats.update(
            {
                "queries": self.queries,
                "scopes_opened": self.scopes_opened,
                "scopes_retired": self.scopes_retired,
                "clauses_reclaimed": self.clauses_reclaimed,
                "learned_retained": self.num_learned(),
            }
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"IncrementalSatSolver(db={self.db!r}, queries={self.queries}, "
            f"learned={self.num_learned()})"
        )


# ----------------------------------------------------------------------
# The process-wide pool
# ----------------------------------------------------------------------
#: The active checkout window of this context, or ``None``.  See
#: :func:`checkout_token`.
_CHECKOUT_TOKEN: "ContextVar[Optional[object]]" = ContextVar(
    "repro_pool_checkout_token", default=None
)


@contextmanager
def checkout_token() -> Iterator[object]:
    """Mark a window whose re-checkouts of the *same solver* are one
    logical use.

    The resilient engine retries a failed attempt against the same
    database, so the retry checks the very solver the first attempt just
    released back out of the pool.  Counting that as a fresh "reuse"
    double-counts warm starts in ``session.stats()`` (the retry earned
    nothing — the warmth came from the attempt the caller already paid
    for).  Inside a window, a repeat checkout of a solver stamped with
    the current token increments ``repeat_checkouts`` instead of
    ``reused``.  With no window active (every non-resilient path),
    behavior is exactly as before.
    """
    token = object()
    reset = _CHECKOUT_TOKEN.set(token)
    try:
        yield token
    finally:
        _CHECKOUT_TOKEN.reset(reset)


class SolverPool:
    """A bounded pool of warm :class:`IncrementalSatSolver` instances.

    Keys are hashable context tuples (built by :func:`acquire_solver`
    from the structural database hash and a caller context tag), so two
    structurally equal databases share warm solvers exactly as they
    share engine-cache entries.

    Solvers are checked out by :meth:`acquire` (removed from the pool, so
    concurrent users never share mutable CDCL state) and parked again by
    :meth:`release`.  Counters track creations, reuses and the learned
    clauses that were warm at each reuse.  Each checkout's CDCL work is
    charged at release to the :func:`~repro.obs.accounting.observe`
    windows open at checkout — exact, because a checked-out solver has
    one user — which is what lets sessions report *per-query deltas*
    from long-lived solvers.
    """

    def __init__(self, maxsize: int = DEFAULT_POOL_MAXSIZE):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, IncrementalSatSolver]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.created = 0
        self.reused = 0
        self.repeat_checkouts = 0
        self.released = 0
        self.discarded = 0
        self.evictions = 0
        self.clauses_retained = 0

    # ------------------------------------------------------------------
    def acquire(
        self,
        key: Hashable,
        builder: Callable[[], IncrementalSatSolver],
    ) -> IncrementalSatSolver:
        """A warm solver for ``key`` (checked out), or a fresh one.

        A repeat checkout of the same solver inside one
        :func:`checkout_token` window (a resilient retry) is counted as
        ``repeat_checkouts``, not as a reuse.
        """
        token = _CHECKOUT_TOKEN.get()
        with self._lock:
            solver = self._entries.pop(key, None)
            if solver is None:
                self.created += 1
            elif token is not None and solver._last_checkout_token is token:
                self.repeat_checkouts += 1
            else:
                self.reused += 1
                self.clauses_retained += solver.num_learned()
        windows = open_windows()
        if solver is None:
            solver = builder()
            before: Dict[str, int] = {}
        else:
            before = solver.core_stats() if windows else {}
        solver._last_checkout_token = token
        solver._charge = (windows, before) if windows else None
        return solver

    def release(
        self, key: Hashable, solver: IncrementalSatSolver
    ) -> None:
        """Park a checked-out solver for the next :meth:`acquire`.

        Solvers past :data:`RETIRED_SCOPE_LIMIT` are discarded (their
        inert clauses outweigh their learned ones), as is a duplicate
        release for a key that is already parked."""
        charge, solver._charge = solver._charge, None
        if charge is not None:
            charge_solver_stats(charge[0], charge[1], solver.core_stats())
        with self._lock:
            self.released += 1
            if (
                self.maxsize == 0
                or solver.scopes_retired > RETIRED_SCOPE_LIMIT
                or key in self._entries
            ):
                self.discarded += 1
                return
            self._entries[key] = solver
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every parked solver and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.created = 0
            self.reused = 0
            self.repeat_checkouts = 0
            self.released = 0
            self.discarded = 0
            self.evictions = 0
            self.clauses_retained = 0

    def configure(self, maxsize: int) -> None:
        """Re-bound the pool, evicting LRU solvers if shrinking."""
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        with self._lock:
            self.maxsize = maxsize
            while len(self._entries) > maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Pool accounting in the flat ``SatSolver.stats()`` style."""
        with self._lock:
            attempts = self.created + self.reused
            return {
                "solvers_pooled": len(self._entries),
                "pool_maxsize": self.maxsize,
                "solvers_created": self.created,
                "solver_reuses": self.reused,
                "solver_repeat_checkouts": self.repeat_checkouts,
                "solver_releases": self.released,
                "solvers_discarded": self.discarded,
                "solver_evictions": self.evictions,
                "clauses_retained": self.clauses_retained,
                "reuse_rate": (self.reused / attempts) if attempts else 0.0,
            }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SolverPool(pooled={s['solvers_pooled']}/{s['pool_maxsize']}, "
            f"created={s['solvers_created']}, reuses={s['solver_reuses']})"
        )


#: The process-wide pool used by every pooled decision procedure.
SOLVER_POOL = SolverPool()


def solver_pool_stats() -> Dict[str, Any]:
    """Statistics of the process-wide solver pool."""
    return SOLVER_POOL.stats()


def _pool_metrics() -> Dict[str, float]:
    return {
        f"repro_pool_{name}": float(value)
        for name, value in SOLVER_POOL.stats().items()
        if isinstance(value, (int, float))
    }


# Pull-style exposition: the pool keeps its own counters under its own
# lock; the registry polls them at expose()/snapshot() time.
METRICS.register_collector("solver_pool", _pool_metrics)


def clear_solver_pool() -> None:
    """Reset the process-wide pool (parked solvers and counters)."""
    SOLVER_POOL.clear()


def configure_solver_pool(maxsize: int) -> None:
    """Re-bound the process-wide pool."""
    SOLVER_POOL.configure(maxsize)


# ----------------------------------------------------------------------
# Acquisition helpers
# ----------------------------------------------------------------------
def acquire_solver(
    db: Optional[DisjunctiveDatabase] = None,
    context: Tuple[Hashable, ...] = (),
    setup: Optional[Callable[[IncrementalSatSolver], None]] = None,
) -> Tuple[Hashable, IncrementalSatSolver]:
    """A (possibly warm) solver for ``(db, context)``.

    Returns ``(key, solver)``; pass both to :func:`release_solver` when
    done.  ``setup`` runs once per *constructed* solver to assert
    permanent context-specific content (e.g. a completion formula); it
    must be a pure function of the key so warm and cold solvers agree.
    """

    def build() -> IncrementalSatSolver:
        solver = IncrementalSatSolver(db=db)
        if setup is not None:
            setup(solver)
        return solver

    key = (db, tuple(context))
    return key, SOLVER_POOL.acquire(key, build)


def release_solver(key: Hashable, solver: IncrementalSatSolver) -> None:
    """Return a solver obtained from :func:`acquire_solver` to the pool."""
    SOLVER_POOL.release(key, solver)


@contextmanager
def pooled_scope(
    db: Optional[DisjunctiveDatabase] = None,
    context: Tuple[Hashable, ...] = (),
    setup: Optional[Callable[[IncrementalSatSolver], None]] = None,
) -> Iterator[Scope]:
    """A fresh scope on a (possibly warm) pooled solver.

    The drop-in replacement for the ``SatSolver(); add_database(db)``
    pattern: everything asserted through the yielded scope is retracted
    on exit, and the underlying solver returns to the pool warm.
    """
    key, solver = acquire_solver(db=db, context=context, setup=setup)
    try:
        with solver.scope() as scope:
            yield scope
    finally:
        release_solver(key, solver)
