"""SAT solving substrate: the package's NP oracle.

* :class:`~repro.sat.cdcl.CdclSolver` — integer-level CDCL core.
* :class:`~repro.sat.solver.SatSolver` — symbolic facade over named atoms.
* :mod:`repro.sat.enumerate` — (projected) model enumeration.
* :mod:`repro.sat.incremental` — persistent incremental solvers with
  selector-guarded scopes, their one model loop ``Scope.each_model``,
  and the process-wide :data:`SOLVER_POOL`.
* :mod:`repro.sat.decompose` — connected-component decomposition and the
  ``MM`` product law.
* :mod:`repro.sat.minimal` — :class:`~repro.sat.minimal.MinimalModelSolver`,
  one solver for the prioritized order ``P1 > ... > Pr; Z`` and its
  one-level cases ``MM(DB;P;Z)`` and ``MM(DB)``.
* :mod:`repro.sat.dpll` — reference DPLL solver for cross-validation.
"""

from .cdcl import CdclSolver, luby
from .decompose import (
    connected_components,
    decompose,
    product_interpretations,
)
from .dpll import solve_dpll
from .enumerate import count_models, iter_models
from .incremental import (
    SOLVER_POOL,
    IncrementalSatSolver,
    Scope,
    SolverPool,
    acquire_solver,
    blocking_clause,
    clear_solver_pool,
    configure_solver_pool,
    pooled_scope,
    release_solver,
    solver_pool_stats,
)
from .minimal import (
    MinimalModelSolver,
    find_minimal_model,
    is_minimal_model,
    minimal_models,
)
from .simplify import (
    SimplificationResult,
    eliminate_pure_literals,
    pure_literals,
    remove_subsumed,
    self_subsume,
    simplify_cnf,
    unit_propagate,
)
from .solver import (
    SatSolver,
    database_is_consistent,
    entails_classically,
    find_model,
    formula_is_valid,
    is_satisfiable,
)
from .types import SolverStats, VariableMap

__all__ = [
    "CdclSolver",
    "luby",
    "connected_components",
    "decompose",
    "product_interpretations",
    "solve_dpll",
    "blocking_clause",
    "count_models",
    "iter_models",
    "SOLVER_POOL",
    "IncrementalSatSolver",
    "Scope",
    "SolverPool",
    "acquire_solver",
    "clear_solver_pool",
    "configure_solver_pool",
    "pooled_scope",
    "release_solver",
    "solver_pool_stats",
    "MinimalModelSolver",
    "find_minimal_model",
    "is_minimal_model",
    "minimal_models",
    "SimplificationResult",
    "eliminate_pure_literals",
    "pure_literals",
    "remove_subsumed",
    "self_subsume",
    "simplify_cnf",
    "unit_propagate",
    "SatSolver",
    "database_is_consistent",
    "entails_classically",
    "find_model",
    "formula_is_valid",
    "is_satisfiable",
    "SolverStats",
    "VariableMap",
]
