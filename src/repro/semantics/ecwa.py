"""ECWA — the Extended Closed World Assumption.

Gelfond, Przymusinska & Przymusinski [12].  For a partition ``⟨P; Q; Z⟩``
of the vocabulary::

    ECWA_{P;Z}(DB) = MM(DB; P; Z)

— the models minimal when ``P`` is minimized, ``Q`` is fixed and ``Z``
floats.  ``EGCWA`` is the special case ``Q = Z = ∅``
(:class:`~repro.semantics.egcwa.Egcwa` subclasses :class:`Ecwa` with the
partition fixed to that default).  In the finite propositional case ECWA
coincides with Lifschitz's circumscription,
``CIRC(DB; P; Z) = MM(DB; P; Z)``, so ``circ`` and ``circumscription``
are registry aliases of ``ecwa``.

Complexity (paper, Tables 1 and 2): literal and formula inference are
Π₂ᵖ-complete; model existence is O(1) for positive DDBs and NP-complete
with integrity clauses (``MM(DB;P;Z) ≠ ∅`` iff DB satisfiable).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..models.enumeration import pz_minimal_models_brute
from ..sat.minimal import MinimalModelSolver
from ..sat.solver import database_is_consistent
from .base import Semantics, register


class PartitionedSemantics(Semantics):
    """Shared machinery for the ``(P; Q; Z)``-parameterized semantics.

    Args:
        p: minimized atoms.  ``None`` (default) minimizes the whole
            vocabulary of whichever database is queried.
        z: floating atoms (default none).
        engine: see :class:`~repro.semantics.base.Semantics`.
    """

    def __init__(
        self,
        p: Optional[Iterable[str]] = None,
        z: Iterable[str] = (),
        engine: str = "oracle",
    ):
        super().__init__(engine=engine)
        self.p = None if p is None else frozenset(p)
        self.z = frozenset(z)

    def partition(
        self, db: DisjunctiveDatabase
    ) -> "tuple[frozenset, frozenset, frozenset]":
        """The effective ``(P, Q, Z)`` for ``db`` (validated)."""
        p = frozenset(db.vocabulary) - self.z if self.p is None else self.p
        q = frozenset(db.vocabulary) - p - self.z
        return db.check_partition(p, q, self.z)

    def cache_params(self) -> "tuple":
        # Distinct (P;Z) partitions must never share memo entries.
        return ("p", self.p, "z", self.z)


@register
class Ecwa(PartitionedSemantics):
    """Extended CWA (= circumscription): entailment over
    ``MM(DB; P; Z)``."""

    name = "ecwa"
    aliases = ("extended-cwa", "circ", "circumscription")
    description = "Extended CWA (Gelfond, Przymusinska & Przymusinski)"

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        p, _q, z = self.partition(db)
        if self.engine == "brute":
            return frozenset(pz_minimal_models_brute(db, p, z))
        with MinimalModelSolver(db, [p], z) as solver:
            return frozenset(solver.iter_minimal_models())

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        # Σ₂ᵖ witness search: a (P;Z)-minimal model satisfying it.
        p, _q, z = self.partition(db)
        with MinimalModelSolver(db, [p], z) as solver:
            return solver.find_minimal_satisfying(condition)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            return True
        if self.engine == "brute":
            return super().has_model(db)
        # Every model sits above some (P;Z)-minimal model, so
        # MM(DB;P;Z) ≠ ∅ iff DB is satisfiable.
        return database_is_consistent(db)
