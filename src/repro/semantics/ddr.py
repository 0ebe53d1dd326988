"""DDR — the Disjunctive Database Rule of Ross & Topor [23],
equivalent to the Weak GCWA of Rajasekar, Lobo & Minker [21].

The closure adds ``¬x`` for every atom ``x`` that does not occur in the
fixpoint ``T_DB ↑ ω`` of derivable positive disjunctions (paper,
Section 3.2)::

    DDR(DB) = {M ∈ M(DB) : M |= ¬x for every x ∉ atoms(T_DB ↑ ω)}

``atoms(T_DB ↑ ω)`` is computable in polynomial time: an atom occurs in a
derivable disjunction iff it is derivable in the *Horn relaxation* of the
database (each clause ``a1|..|an :- B`` relaxed to the definite rules
``ai :- B``) — see :func:`possibly_true_atoms` for the proof sketch.

DDR is defined for disjunctive deductive databases (no negation); the
paper notes integrity clauses "are not respected by DDR" (Example 3.1) —
the fixpoint simply ignores them, but they still constrain the model set.

Complexity (paper, Tables 1 and 2):

* literal inference: in P without integrity clauses (Chan [5]); the
  tractable case is negative literals via the fixpoint, and for positive
  literals ``DDR(DB) |= x`` coincides with classical entailment for
  IC-free DDBs.  coNP-complete with integrity clauses.
* formula inference: coNP-complete in both regimes.
* model existence: O(1) without ICs; coNP-complete-ish check via one SAT
  call with ICs.
"""

from __future__ import annotations

from typing import FrozenSet

from ..errors import NotPositiveError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..sat.enumerate import iter_models
from ..sat.incremental import pooled_scope
from .base import Semantics, ground_query, register
from .gcwa import augmented_database


def possibly_true_atoms(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """``atoms(T_DB ↑ ω)`` — atoms occurring in some derivable positive
    disjunction, via the Horn-relaxation least fixpoint.

    Correctness: (⊆) every atom of a derivable disjunction
    ``H ∪ ⋃(Dj \\ {bj})`` is relaxation-derivable by induction (each body
    atom ``bj`` lies in the derivable ``Dj``); (⊇) if ``x`` is
    relaxation-derivable via ``x ∈ H``, ``H :- b1..bk`` with each ``bj``
    relaxation-derivable, then by induction each ``bj`` occurs in a
    derivable disjunction, so resolving them with the clause produces a
    derivable disjunction containing ``x``.

    Integrity clauses derive nothing and are ignored, exactly as in the
    paper's ``T_DB`` (hence Example 3.1).
    """
    if db.has_negation:
        raise NotPositiveError("DDR is defined for deductive databases only")
    derivable: set = set()
    changed = True
    pending = [c for c in db.clauses if not c.is_integrity]
    while changed:
        changed = False
        remaining = []
        for clause in pending:
            if clause.body_pos <= derivable:
                new_atoms = clause.head - derivable
                if new_atoms:
                    derivable |= new_atoms
                    changed = True
            else:
                remaining.append(clause)
        pending = remaining
    return frozenset(derivable)


@register
class Ddr(Semantics):
    """Disjunctive Database Rule (≡ Weak GCWA)."""

    name = "ddr"
    aliases = ("wgcwa", "weak-gcwa")
    description = "Disjunctive Database Rule (Ross & Topor) = WGCWA"

    def validate(self, db: DisjunctiveDatabase) -> None:
        if db.has_negation:
            raise NotPositiveError(
                "DDR is defined for deductive databases only"
            )

    def negated_atoms(self, db: DisjunctiveDatabase) -> FrozenSet[str]:
        """The atoms the closure makes false (polynomial time)."""
        return frozenset(db.vocabulary) - possibly_true_atoms(db)

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        negated = self.negated_atoms(db)
        if self.engine == "brute":
            from ..models.enumeration import all_models

            return frozenset(m for m in all_models(db) if not (m & negated))
        augmented = augmented_database(db, negated)
        return frozenset(
            iter_models(augmented, project=db.vocabulary)
        )

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        formula = ground_query(db, formula)
        if self.engine == "brute":
            return super().infers(db, formula)
        # coNP upper bound: polynomial fixpoint + one UNSAT call.
        augmented = augmented_database(db, self.negated_atoms(db))
        with pooled_scope(augmented, context=("db",)) as sat:
            sat.add_formula(formula, positive=False)
            return not sat.solve()

    def infers_literal(self, db: DisjunctiveDatabase, literal) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        self.validate(db)
        if self.engine == "brute":
            return super().infers_literal(db, literal)
        if not literal.positive and not db.has_integrity_clauses:
            # Table 1 tractable cell (Chan): for IC-free DDBs the set of
            # possibly-true atoms is itself a DDR model, so
            # DDR(DB) |= ¬x iff x is not possibly true.  Zero SAT calls.
            return literal.atom in self.negated_atoms(db)
        return super().infers_literal(db, literal)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if not db.has_integrity_clauses:
            return True  # the possibly-true set is always a DDR model
        if self.engine == "brute":
            return super().has_model(db)
        augmented = augmented_database(db, self.negated_atoms(db))
        with pooled_scope(augmented, context=("db",)) as sat:
            return sat.solve()
