"""PWS — Chan's Possible Worlds Semantics, via the equivalent Possible
Models Semantics (PMS) of Sakama [24].

A *split program* of a deductive DB chooses, for each non-integrity
clause, a nonempty subset of its head and replaces the clause by one
definite rule per chosen atom (integrity clauses are kept).  A *possible
model* is a minimal model of some split program.  ``PWS(DB)`` selects the
possible models; inference is truth in all of them.

Polynomial model check (used by the oracle engine, and verified against
the split-enumeration definition in the tests): ``M`` is a possible model
iff ``M`` is a classical model of DB (integrity clauses included) and
``M = lfp(Π_M)`` where ``Π_M = {a :- B  |  (H :- B) ∈ DB, a ∈ H ∩ M}``.
(⇒) the rules of a witnessing split that ever fire have their chosen
heads inside ``M``, so its least-model derivation is a ``Π_M``
derivation, and ``Π_M`` derivations cannot leave ``M``.
(⇐) choose ``σ(C) = head(C) ∩ M`` for clauses whose body is contained in
``M`` (nonempty since ``M`` is a model) and the full head otherwise; the
least model of that split is exactly ``lfp(Π_M) = M``.

Complexity (paper, Tables 1 and 2): literal inference in P without
integrity clauses (Chan; negative literals via the same possibly-true
fixpoint as DDR), coNP-complete with them; formula inference
coNP-complete; model existence O(1) without ICs and decidable with one
guess-and-check loop with them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Optional

from ..errors import GroundTruthCapError, NotPositiveError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..logic.transform import split_count, split_programs
from ..runtime.budget import check_deadline
from ..sat.incremental import pooled_scope
from .base import Semantics, ground_query, register
from .ddr import possibly_true_atoms

#: Split-enumeration safety bound for the brute engine.
MAX_SPLITS = 1 << 16


def is_possible_model(
    db: DisjunctiveDatabase, model: Interpretation
) -> bool:
    """Polynomial-time possible-model check (see module docstring)."""
    if db.has_negation:
        raise NotPositiveError("PWS is defined for deductive databases only")
    model_set = frozenset(model)
    if not db.is_model(model_set):
        return False
    # lfp of Π_M — definite rules a :- B for a ∈ head ∩ M.
    rules = [
        (clause.head & model_set, clause.body_pos)
        for clause in db.clauses
        if clause.head & model_set
    ]
    derived: set = set()
    changed = True
    while changed:
        changed = False
        for heads, body in rules:
            if body <= derived:
                new = heads - derived
                if new:
                    derived |= new
                    changed = True
    return derived == model_set


def possible_models_by_splits(
    db: DisjunctiveDatabase, max_splits: int = MAX_SPLITS
) -> FrozenSet[Interpretation]:
    """Possible models straight from the definition (split enumeration +
    minimal models of each split).  Exponential; used as ground truth."""
    from ..models.enumeration import minimal_models_brute

    if db.has_negation:
        raise NotPositiveError("PWS is defined for deductive databases only")
    if split_count(db) > max_splits:
        raise GroundTruthCapError(
            f"too many split programs ({split_count(db)} > {max_splits})"
        )
    found = set()
    for split in split_programs(db):
        found.update(minimal_models_brute(split))
    return frozenset(found)


@register
class Pws(Semantics):
    """Possible Worlds Semantics (≡ Possible Models Semantics)."""

    name = "pws"
    aliases = ("pms", "possible-models", "possible-worlds")
    description = "Possible Worlds Semantics (Chan) = PMS (Sakama)"

    def validate(self, db: DisjunctiveDatabase) -> None:
        if db.has_negation:
            raise NotPositiveError(
                "PWS is defined for deductive databases only"
            )

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        if self.engine == "brute":
            return possible_models_by_splits(db)
        return frozenset(self._iter_possible_models(db))

    def _iter_possible_models(
        self, db: DisjunctiveDatabase, condition: Optional[Formula] = None
    ) -> Iterator[Interpretation]:
        """Enumerate possible models (optionally satisfying a condition)
        by SAT candidate generation + polynomial possible-model check."""
        vocabulary = sorted(db.vocabulary)
        with pooled_scope(db, context=("db",)) as solver:
            if condition is not None:
                solver.add_formula(condition)
            while True:
                check_deadline()
                if not solver.solve():
                    return
                candidate = solver.model(restrict_to=db.vocabulary)
                if is_possible_model(db, candidate):
                    yield candidate
                solver.add_clause(
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
        # coNP guess-and-check: a counterexample is a possible model of
        # DB satisfying ¬F; the possible-model check is polynomial.
        for _counterexample in self._iter_possible_models(
            db, condition=Not(formula)
        ):
            return False
        return True

    def infers_literal(self, db: DisjunctiveDatabase, literal) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        self.validate(db)
        if self.engine == "brute":
            return super().infers_literal(db, literal)
        if not literal.positive and not db.has_integrity_clauses:
            # Table 1 tractable cell (Chan): without ICs the possibly-true
            # set is itself a possible model (least model of the all-heads
            # split), and every possible model is contained in it; so
            # PWS(DB) |= ¬x iff x is not possibly true.  Zero SAT calls.
            return literal.atom not in possibly_true_atoms(db)
        return super().infers_literal(db, literal)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if not db.has_integrity_clauses:
            return True  # the all-heads split's least model always exists
        if self.engine == "brute":
            return super().has_model(db)
        for _model in self._iter_possible_models(db):
            return True
        return False
