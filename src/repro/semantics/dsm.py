"""DSM — Disjunctive Stable Model semantics (Przymusinski [20]).

Generalizes the stable models of Gelfond & Lifschitz [10] to disjunctive
databases via the reduct ``DB^M`` (delete clauses whose negative body
meets ``M``; strip remaining negative literals)::

    DSM(DB) = {M : M ∈ MM(DB^M)}

Disjunctive stable models are minimal models of DB; on positive databases
``DSM(DB) = MM(DB)`` (the reduct is DB itself).

Complexity (paper, Section 5.2 and Tables 1 and 2): literal and formula
inference Π₂ᵖ-complete; model existence trivial for positive databases
and Σ₂ᵖ-complete in general (the guess is a model ``M``, the check —
``M ∈ MM(DB^M)`` — one NP-oracle call).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation, all_interpretations
from ..logic.transform import gl_reduct
from ..runtime.budget import check_deadline
from ..sat.incremental import pooled_scope
from ..sat.minimal import MinimalModelSolver
from .base import Semantics, ground_query, register


def is_stable_model(db: DisjunctiveDatabase, model: Interpretation) -> bool:
    """``M ∈ MM(DB^M)`` — the Σ₂ᵖ verifier's check (polynomial plus one
    NP-oracle call for minimality)."""
    model = Interpretation(model)
    reduct = gl_reduct(db, model)
    if not reduct.is_model(model):
        return False
    with MinimalModelSolver(reduct) as solver:
        return solver.is_minimal(model)


def is_stable_model_brute(
    db: DisjunctiveDatabase, model: Interpretation
) -> bool:
    """Reference stable check by explicit enumeration of the reduct's
    smaller models."""
    model = Interpretation(model)
    reduct = gl_reduct(db, model)
    if not reduct.is_model(model):
        return False
    return not any(
        reduct.is_model(n)
        for n in all_interpretations(db.vocabulary)
        if n < model
    )


@register
class Dsm(Semantics):
    """Disjunctive Stable Model semantics."""

    name = "dsm"
    aliases = ("stable", "disjunctive-stable")
    description = "Disjunctive Stable Models (Przymusinski)"

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        if self.engine == "brute":
            return frozenset(
                m
                for m in all_interpretations(db.vocabulary)
                if is_stable_model_brute(db, m)
            )
        return frozenset(self._iter_stable(db))

    def _iter_stable(
        self, db: DisjunctiveDatabase, condition: Optional[Formula] = None
    ) -> Iterator[Interpretation]:
        """Guess-and-check enumeration: stable models are models of DB, so
        candidates come from the SAT oracle; each is checked with one
        NP-oracle minimality call; exact blocking."""
        vocabulary = sorted(db.vocabulary)
        with pooled_scope(db, context=("db",)) as searcher:
            if condition is not None:
                searcher.add_formula(condition)
            while True:
                check_deadline()
                if not searcher.solve():
                    return
                candidate = searcher.model(restrict_to=db.vocabulary)
                if is_stable_model(db, candidate):
                    yield candidate
                searcher.add_clause(
                    [
                        Literal.neg(a) if a in candidate else Literal.pos(a)
                        for a in vocabulary
                    ]
                )

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers(db, formula)
        for _counterexample in self._iter_stable(db, condition=Not(formula)):
            return False
        return True

    def infers_brave(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers_brave(db, formula)
        # Σ₂ᵖ witness search: a stable model satisfying the formula.
        for _witness in self._iter_stable(db, condition=formula):
            return True
        return False

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            return True  # DSM(DB) = MM(DB) ≠ ∅ for positive databases
        if self.engine == "brute":
            return super().has_model(db)
        for _model in self._iter_stable(db):
            return True
        return False
