"""GCWA — Minker's Generalized Closed World Assumption.

Minker [16].  The closure adds ``¬x`` for every atom ``x`` that is false
in all minimal models.  Model-theoretic characterization (paper,
Section 3.1)::

    GCWA(DB) = {M ∈ M(DB) : ∀x ∈ V. MM(DB) |= ¬x  ⟹  M |= ¬x}

i.e. the models of ``DB ∪ {¬x : x ∈ ff(DB)}`` where ``ff(DB)`` is the set
of atoms *free for negation* (false in every minimal model).

Complexity (paper, Tables 1 and 2):

* literal inference: Π₂ᵖ-complete.  For a negative literal ``¬x`` this is
  ``MM(DB) |= ¬x`` directly; for a positive literal ``x`` it coincides
  with minimal-model entailment of ``x`` (every model extends a minimal
  model, see :meth:`Gcwa.infers_literal`).
* formula inference: Π₂ᵖ-hard, in P^{Σ₂ᵖ}[O(log n)].  The O(log n)-call
  algorithm lives in :mod:`repro.complexity.machines`; the engine here
  uses the straightforward |V|-call computation of ``ff(DB)``.
* model existence: O(1) for positive DDBs; with integrity clauses,
  ``GCWA(DB) ≠ ∅`` iff DB is satisfiable (``MM(DB) ⊆ GCWA(DB)``).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..logic.atoms import Literal
from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Var
from ..logic.interpretation import Interpretation
from ..models.enumeration import minimal_models_brute
from ..sat.enumerate import iter_models
from ..sat.incremental import pooled_scope
from ..sat.minimal import MinimalModelSolver
from ..sat.solver import database_is_consistent
from .base import Semantics, register


def free_for_negation_brute(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """``ff(DB)``: atoms false in every minimal model, by enumeration."""
    minimal = minimal_models_brute(db)
    return frozenset(
        x for x in db.vocabulary if not any(x in m for m in minimal)
    )


def free_for_negation(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """``ff(DB)`` via the Σ₂ᵖ primitive: ``x ∈ ff`` iff no minimal model
    satisfies ``x`` — one Σ₂ᵖ dispatch per atom, asked as a single
    batched incremental sweep (see
    :meth:`~repro.sat.minimal.MinimalModelSolver.free_atoms`) so all |V|
    candidate atoms share one solver scope."""
    with MinimalModelSolver(db) as engine:
        return engine.free_atoms()


def augmented_database(
    db: DisjunctiveDatabase, free: FrozenSet[str]
) -> DisjunctiveDatabase:
    """``DB ∪ {¬x : x ∈ free}`` — the GCWA/CCWA closure as a database
    (each ``¬x`` as the integrity clause ``:- x.``)."""
    units = [Clause.integrity([atom]) for atom in sorted(free)]
    return db.with_clauses(units)


def closure_model(
    db: DisjunctiveDatabase, negated: FrozenSet[str], condition: Formula
) -> Optional[Interpretation]:
    """A model of ``DB ∪ {¬x : x ∈ negated}`` satisfying ``condition``,
    or ``None`` — the one SAT call of the coNP closure checks (GCWA and
    CCWA once ``negated`` is known, DDR, CWA).  With ``¬F`` as the
    condition, ``None`` means the closure entails ``F``."""
    with pooled_scope(
        augmented_database(db, negated), context=("db",)
    ) as sat:
        sat.add_formula(condition)
        if not sat.solve():
            return None
        return sat.model(restrict_to=db.vocabulary)


@register
class Gcwa(Semantics):
    """Generalized CWA: negate atoms false in all minimal models."""

    name = "gcwa"
    aliases = ("generalized-cwa",)
    description = "Generalized CWA (Minker)"

    def free_atoms(self, db: DisjunctiveDatabase) -> FrozenSet[str]:
        """The atoms the closure negates."""
        if self.engine == "brute":
            return free_for_negation_brute(db)
        return free_for_negation(db)

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        free = self.free_atoms(db)
        if self.engine == "brute":
            from ..models.enumeration import all_models

            return frozenset(
                m for m in all_models(db) if not (m & free)
            )
        augmented = augmented_database(db, free)
        return frozenset(
            iter_models(augmented, project=db.vocabulary)
        )

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        # ff(DB) via |V| Σ₂ᵖ-primitive calls, then one classical call on
        # the augmented theory.  (The Θ₂ᵖ-style O(log n)-oracle-call
        # algorithm is in repro.complexity.machines.)
        return closure_model(db, self.free_atoms(db), condition)

    def infers_literal(self, db: DisjunctiveDatabase, literal) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        self.validate(db)
        if self.engine == "brute":
            return super().infers_literal(db, literal)
        # Both polarities reduce to one minimal-model entailment query
        # (Π₂ᵖ): ¬x holds in all GCWA models iff x ∈ ff(DB) iff
        # MM(DB) |= ¬x; and x holds in all GCWA models iff it holds in all
        # minimal models, because every GCWA model contains some minimal
        # model and atoms persist upward.
        with MinimalModelSolver(db) as engine:
            if literal.positive:
                return engine.entails(Var(literal.atom))
            return (
                engine.find_minimal_satisfying(Var(literal.atom)) is None
            )

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            return True  # Table 1: O(1)
        if self.engine == "brute":
            return super().has_model(db)
        # MM(DB) ⊆ GCWA(DB): nonempty iff DB satisfiable.
        return database_is_consistent(db)
