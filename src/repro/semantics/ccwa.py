"""CCWA — the Careful Closed World Assumption.

Gelfond & Przymusinska [11].  Generalizes GCWA to a partition
``⟨P; Q; Z⟩``: the closure adds ``¬x`` for each ``x ∈ P`` such that
``MM(DB; P; Z) |= ¬x``.  Model-theoretic characterization (paper,
Section 3.1)::

    CCWA(DB) = {M ∈ M(DB) : ∀x ∈ P. MM(DB;P;Z) |= ¬x  ⟹  M |= ¬x}

GCWA is the special case ``Q = Z = ∅``.

Complexity (paper, Tables 1 and 2): literal and formula inference are
Π₂ᵖ-hard and in P^{Σ₂ᵖ}[O(log n)] (the O(log n)-call algorithm is in
:mod:`repro.complexity.machines`); model existence as for GCWA.
"""

from __future__ import annotations

from typing import FrozenSet

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Var
from ..logic.interpretation import Interpretation
from ..models.enumeration import all_models, pz_minimal_models_brute
from ..sat.enumerate import iter_models
from ..sat.minimal import MinimalModelSolver
from ..sat.solver import database_is_consistent
from .ecwa import PartitionedSemantics
from .base import register
from .gcwa import augmented_database, closure_model


@register
class Ccwa(PartitionedSemantics):
    """Careful CWA: negate ``P``-atoms false in all ``(P;Z)``-minimal
    models."""

    name = "ccwa"
    aliases = ("careful-cwa",)
    description = "Careful CWA (Gelfond & Przymusinska)"

    def free_atoms(self, db: DisjunctiveDatabase) -> FrozenSet[str]:
        """``{x ∈ P : MM(DB;P;Z) |= ¬x}`` — the atoms the closure negates."""
        p, q, z = self.partition(db)
        if self.engine == "brute":
            minimal = pz_minimal_models_brute(db, p, z)
            return frozenset(
                x for x in p if not any(x in m for m in minimal)
            )
        # One Σ₂ᵖ dispatch per P-atom, asked as a single batched
        # incremental sweep sharing one solver scope.
        with MinimalModelSolver(db, [p], z) as solver:
            return solver.free_atoms()

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        free = self.free_atoms(db)
        if self.engine == "brute":
            return frozenset(m for m in all_models(db) if not (m & free))
        augmented = augmented_database(db, free)
        return frozenset(
            iter_models(augmented, project=db.vocabulary)
        )

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        return closure_model(db, self.free_atoms(db), condition)

    def infers_literal(self, db: DisjunctiveDatabase, literal) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        self.validate(db)
        if self.engine == "brute":
            return self.infers(db, Var(literal.atom) if literal.positive
                           else ~Var(literal.atom))
        p, _q, _z = self.partition(db)
        if not literal.positive and literal.atom in p:
            # ¬x for x ∈ P: exactly the closure test MM(DB;P;Z) |= ¬x
            # (one Σ₂ᵖ-primitive query).
            with MinimalModelSolver(db, [p], self.z) as solver:
                return (
                    solver.find_minimal_satisfying(Var(literal.atom))
                    is None
                )
        return self.infers(db, Var(literal.atom) if literal.positive
                           else ~Var(literal.atom))

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            return True
        if self.engine == "brute":
            return super().has_model(db)
        # MM(DB;P;Z) ⊆ CCWA(DB): nonempty iff DB satisfiable.
        return database_is_consistent(db)
