"""EGCWA — the Extended Generalized Closed World Assumption.

Yahya & Henschen [30].  Model-theoretic characterization (paper,
Section 3.3): ``EGCWA(DB) = MM(DB)`` — the selected models are exactly the
subset-minimal models, so inference is *minimal-model entailment*.

Complexity (paper, Tables 1 and 2):

* literal / formula inference: Π₂ᵖ-complete (already for positive DDBs),
* model existence: ``O(1)`` for positive DDBs (always yes),
  NP-complete with integrity clauses (``MM(DB) ≠ ∅`` iff DB satisfiable).
"""

from __future__ import annotations

from typing import FrozenSet

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..models.enumeration import minimal_models_brute
from ..sat.minimal import MinimalModelSolver
from ..sat.solver import database_is_consistent
from .base import Semantics, ground_query, register


@register
class Egcwa(Semantics):
    """Extended GCWA: entailment over the minimal models ``MM(DB)``."""

    name = "egcwa"
    aliases = ("extended-gcwa",)
    description = "Extended Generalized CWA (Yahya & Henschen)"

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        if self.engine == "brute":
            return frozenset(minimal_models_brute(db))
        with MinimalModelSolver(db) as solver:
            return frozenset(solver.iter_minimal_models())

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers(db, formula)
        # Π₂ᵖ upper bound: no minimal model satisfies the negation.
        with MinimalModelSolver(db) as solver:
            return solver.entails(formula)

    def infers_brave(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        from .base import ground_query

        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers_brave(db, formula)
        # Σ₂ᵖ witness search: a minimal model satisfying the formula.
        with MinimalModelSolver(db) as solver:
            return solver.find_minimal_satisfying(formula) is not None

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            return True  # Table 1: O(1) — a positive DDB is always consistent
        if self.engine == "brute":
            return super().has_model(db)
        # Table 2: NP-complete — MM(DB) nonempty iff DB satisfiable.
        return database_is_consistent(db)
