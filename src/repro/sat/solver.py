"""High-level SAT interface over named atoms.

:class:`SatSolver` wraps the integer-level CDCL solver with the symbolic
vocabulary of :mod:`repro.logic`: clauses are frozensets of
:class:`~repro.logic.atoms.Literal`, models come back as
:class:`~repro.logic.interpretation.Interpretation` objects, and databases
and formulas can be asserted directly.

A :class:`SatSolver` is incremental: clauses can be added between
``solve`` calls and assumptions allow temporary constraints.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..errors import SolverError
from ..logic.atoms import Literal
from ..runtime import observe_sat_call
from ..logic.cnf import Cnf, tseitin
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from .cdcl import CdclSolver
from .types import VariableMap


class SatSolver:
    """Incremental SAT solving over named atoms (the NP oracle).

    Args:
        max_conflicts: optional conflict budget forwarded to the CDCL core.
    """

    def __init__(self, max_conflicts: Optional[int] = None):
        self.variables = VariableMap()
        self._core = CdclSolver(max_conflicts=max_conflicts)
        self._known_unsat = False
        self._last_model: Optional[set] = None

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def add_int_clause(self, literals: Iterable[int]) -> None:
        """Assert a clause given as integer literals (advanced use)."""
        if not self._core.add_clause(list(literals)):
            self._known_unsat = True

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Assert a symbolic clause (a disjunction of literals)."""
        self.add_int_clause(
            self.variables.int_literal(l) for l in literals
        )

    def add_cnf(self, cnf: Cnf) -> None:
        """Assert every clause of a symbolic CNF."""
        for clause in cnf:
            self.add_clause(clause)

    def add_database(self, db: DisjunctiveDatabase) -> None:
        """Assert the classical clause form of every database clause and
        register the whole vocabulary (so models range over it).

        The clause translation is memoized process-wide: every decision
        procedure builds fresh solvers for the same database over and
        over, so the literal form is computed once per database.
        """
        from ..engine.cache import classical_clauses_for

        for atom in sorted(db.vocabulary):
            self.variables.intern(atom)
            self._core.ensure_var(self.variables.number(atom))
        for literals in classical_clauses_for(db):
            self.add_clause(literals)

    def add_formula(self, formula: Formula, positive: bool = True) -> None:
        """Assert ``formula`` (or its negation) via Tseitin encoding.

        Fresh definition atoms are allocated away from all atoms known to
        this solver.
        """
        clauses, root, _aux = tseitin(formula, avoid=self.variables.atoms())
        self.add_cnf(clauses)
        self.add_clause([root if positive else -root])

    def add_unit(self, literal: Literal) -> None:
        """Assert a single literal."""
        self.add_clause([literal])

    def remove_clauses_with(self, literal: Literal) -> int:
        """Physically delete every asserted clause containing
        ``literal`` — input and learned alike.  Only sound when the
        literal is already asserted as a unit (every deleted clause is
        satisfied forever); the incremental layer calls this when a
        scope retires so its guarded clauses stop clogging watch lists.
        Returns the number of clauses removed from the CDCL store."""
        number = self.variables.int_literal(literal)
        if self._known_unsat:
            return 0
        return self._core.remove_clauses_with(number)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[Literal] = ()) -> bool:
        """Decide satisfiability under the given assumption literals.

        Each call ticks the active :class:`~repro.runtime.budget.
        BudgetScope` (SAT-call ceiling, deadline) and consults the active
        :class:`~repro.runtime.faults.FaultPlan` (latency, transient
        faults) before any search work happens, so a budgeted caller is
        cut off between oracle calls and an injected fault costs no
        solver state.
        """
        observe_sat_call()
        assumed = [self.variables.int_literal(l) for l in assumptions]
        if self._known_unsat:
            self._last_model = None
            return False
        satisfiable = self._core.solve(assumed)
        self._last_model = self._core.model() if satisfiable else None
        return satisfiable

    def model(
        self, restrict_to: Optional[Iterable[str]] = None
    ) -> Interpretation:
        """The model found by the last successful :meth:`solve`.

        Args:
            restrict_to: atoms to project onto (e.g. the database
                vocabulary, dropping Tseitin definitional atoms).  Defaults
                to every interned atom.
        """
        if self._last_model is None:
            raise SolverError("no model available; call solve() first")
        if restrict_to is None:
            atoms = self.variables.atoms()
        else:
            atoms = [a for a in restrict_to if a in self.variables]
        true_vars = self._last_model
        return Interpretation(
            a for a in atoms if self.variables.number(a) in true_vars
        )

    def reset_phases(self) -> None:
        """Reset the CDCL core's saved phases to the default false bias
        (see :meth:`repro.sat.cdcl.CdclSolver.reset_phases`)."""
        self._core.reset_phases()

    def literal_value(self, literal: Literal) -> int:
        """The literal's current level-0 value in the CDCL core:
        1 true, -1 false, 0 unassigned.  An atom the core has never
        allocated (e.g. a scope selector that guarded no clause) is
        unassigned."""
        number = self.variables.int_literal(literal)
        if abs(number) > self._core.num_vars:
            return 0
        return self._core.value(number)

    def stats(self) -> Dict[str, int]:
        """Search statistics of the CDCL core."""
        return self._core.stats.snapshot()


# ----------------------------------------------------------------------
# One-shot helpers
# ----------------------------------------------------------------------
def is_satisfiable(cnf: Cnf) -> bool:
    """One-shot satisfiability of a symbolic CNF."""
    solver = SatSolver()
    solver.add_cnf(cnf)
    return solver.solve()


def database_is_consistent(db: DisjunctiveDatabase) -> bool:
    """Whether the database has at least one classical model."""
    solver = SatSolver()
    solver.add_database(db)
    return solver.solve()


def find_model(db: DisjunctiveDatabase) -> Optional[Interpretation]:
    """Some classical model of the database, or ``None``."""
    solver = SatSolver()
    solver.add_database(db)
    if not solver.solve():
        return None
    return solver.model(restrict_to=db.vocabulary)


def formula_is_satisfiable(formula: Formula) -> bool:
    """One-shot satisfiability of a formula (via one SAT call)."""
    solver = SatSolver()
    solver.add_formula(formula)
    return solver.solve()


def formula_is_valid(formula: Formula) -> bool:
    """Classical validity of a formula (via one UNSAT call)."""
    solver = SatSolver()
    solver.add_formula(formula, positive=False)
    return not solver.solve()


def entails_classically(db: DisjunctiveDatabase, formula: Formula) -> bool:
    """Classical entailment ``DB |= F`` (truth in all classical models),
    decided by one UNSAT call on ``DB ∧ ¬F``."""
    solver = SatSolver()
    solver.add_database(db)
    solver.add_formula(formula, positive=False)
    return not solver.solve()
