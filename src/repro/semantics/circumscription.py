"""CIRC — propositional circumscription (Lifschitz [14]).

For a partition ``⟨P; Q; Z⟩``::

    Circ(DB; P; Z) = DB[P; Z] ∧ ¬∃P' Z' (DB[P'; Z'] ∧ P' < P)

The paper notes ``CIRC_{P;Z}(DB) = MM(DB; P; Z) = ECWA_{P;Z}(DB)`` in the
finite propositional case.  This module implements circumscription
*directly from Lifschitz's second-order formula* — the inner ``∃P'Z'`` is
realized by renaming ``P ∪ Z`` to fresh atoms and asking the SAT oracle —
so that the equivalence with ECWA is something the test suite *verifies*
rather than assumes.
"""

from __future__ import annotations

from typing import FrozenSet

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..logic.transform import rename_atoms
from ..runtime.budget import check_deadline
from ..sat.enumerate import iter_models
from ..sat.incremental import pooled_scope
from .base import ground_query, register
from .ecwa import PartitionedSemantics


def _primed(atom: str) -> str:
    return atom + "__prime"


def circumscription_axiom(db: DisjunctiveDatabase, p, z, model):
    """Lifschitz's axiom for a concrete model, as an explicit 2QBF.

    ``M |= Circ(DB; P; Z)`` iff ``M |= DB`` and the sentence
    ``∀P' Z' . ¬(DB[P'; Z'] ∧ P' < P(M))`` is valid, where ``Q`` is
    instantiated to ``M``'s values.  Returns that ``∀∃``-free sentence as
    a :class:`~repro.qbf.formula.QBF2` with an empty existential block —
    decidable by the package's 2QBF solver, giving a *third* independent
    route to CIRC (besides the SAT-query checker here and the
    ``(P;Z)``-minimality machinery), cross-validated in the tests.
    """
    from ..logic.formula import Not as FNot, Var as FVar, conj
    from ..qbf.formula import QBF2, substitute

    p = frozenset(p)
    z = frozenset(z)
    q = frozenset(db.vocabulary) - p - z
    model = frozenset(model)
    renaming = {a: _primed(a) for a in p | z}
    renamed_db = rename_atoms(db, renaming)
    matrix_parts = [renamed_db.to_formula()]
    # P' <= P(M): primed copies of M-false P-atoms are false.
    for atom in sorted(p - model):
        matrix_parts.append(FNot(FVar(_primed(atom))))
    # ... strictly below: some M-true P-atom dropped.
    p_true = sorted(p & model)
    from ..logic.formula import disj

    matrix_parts.append(
        disj([FNot(FVar(_primed(a))) for a in p_true])
    )
    # Q is shared: substitute M's values.
    matrix = substitute(
        conj(matrix_parts),
        {a: (a in model) for a in q},
    )
    universal = frozenset(_primed(a) for a in p | z)
    # ∀P'Z' . ¬(smaller-model matrix): encode as ∀X ∃∅ . ¬matrix.
    return QBF2(False, universal, frozenset(), FNot(matrix))


class CircumscriptionChecker:
    """Decides ``M |= Circ(DB; P; Z)`` by Lifschitz's formula.

    The second-order witness ``(P', Z')`` becomes a renamed copy of the
    database over primed atoms (``Q`` stays shared), with ``P' ≤ P``
    enforced against the concrete model ``M`` and strictness as a clause.
    """

    def __init__(self, db: DisjunctiveDatabase, p, z):
        self.db = db
        self.p = frozenset(p)
        self.z = frozenset(z)
        self.q = frozenset(db.vocabulary) - self.p - self.z
        db.check_partition(self.p, self.q, self.z)
        renaming = {a: _primed(a) for a in self.p | self.z}
        self.renamed_db = rename_atoms(db, renaming)

    def is_circumscribed(self, model: Interpretation) -> bool:
        """Whether ``model`` satisfies the circumscription axiom."""
        if not self.db.is_model(model):
            return False
        # The renamed database is the permanent theory; everything tied
        # to the concrete model M lives in one retractable scope.
        with pooled_scope(self.renamed_db, context=("db",)) as sat:
            # Q is shared between the copies: fix it to M's values.
            for atom in sorted(self.q):
                sat.add_unit(
                    Literal.pos(atom) if atom in model else Literal.neg(atom)
                )
            # P' ≤ P(M): primed P-atoms false wherever M makes them false.
            p_true = sorted(a for a in self.p if a in model)
            for atom in sorted(self.p):
                if atom not in model:
                    sat.add_unit(Literal.neg(_primed(atom)))
            # Strictness P' < P: some true P-atom of M is false in the
            # copy.
            if not p_true:
                return True  # nothing below the empty P-part
            sat.add_clause([Literal.neg(_primed(a)) for a in p_true])
            return not sat.solve()


@register
class Circumscription(PartitionedSemantics):
    """Circumscription, implemented from the second-order definition."""

    name = "circ"
    aliases = ("circumscription",)
    description = "Propositional circumscription (Lifschitz)"

    def _checker(self, db: DisjunctiveDatabase) -> CircumscriptionChecker:
        p, _q, z = self.partition(db)
        return CircumscriptionChecker(db, p, z)

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        checker = self._checker(db)
        if self.engine == "brute":
            from ..models.enumeration import all_models

            return frozenset(
                m for m in all_models(db) if checker.is_circumscribed(m)
            )
        return frozenset(
            m
            for m in iter_models(db, project=db.vocabulary)
            if checker.is_circumscribed(m)
        )

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers(db, formula)
        checker = self._checker(db)
        p, q, _z = self.partition(db)
        pq = sorted(p | q)
        # Guess-and-check: candidates are models of DB ∧ ¬F; whether a
        # model is circumscribed depends only on its P ∪ Q part, so failed
        # candidates are blocked on that projection.
        with pooled_scope(db, context=("db",)) as searcher:
            searcher.add_formula(Not(formula))
            while True:
                check_deadline()
                if not searcher.solve():
                    return True
                candidate = searcher.model(restrict_to=db.vocabulary)
                if checker.is_circumscribed(candidate):
                    return False
                searcher.add_clause(
                    [
                        Literal.neg(a) if a in candidate else Literal.pos(a)
                        for a in pq
                    ]
                )
