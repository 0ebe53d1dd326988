"""PERF — Przymusinski's Perfect Models Semantics [19].

Defined for disjunctive normal databases *without integrity clauses*
(paper, Section 5.1).  A priority preorder on atoms is read off the
clause structure: for each clause ``a1|..|an :- b1,..,bk, not c1,..,not cm``

* ``ai < cj`` — every negated body atom has *higher* priority than every
  head atom (``x < y`` means ``y`` has higher priority; higher-priority
  atoms are minimized more eagerly),
* ``ai <= bj`` — positive body atoms have priority at least the head's,
* ``ai <= aj`` — head atoms share a priority.

``<=`` is the reflexive-transitive closure; ``x < y`` holds when some
chain from ``x`` to ``y`` uses a strict edge.  A model ``N`` is
*preferable* to a model ``M`` (``N ≺ M``) iff ``N ≠ M`` and for every
``a ∈ N−M`` there is ``b ∈ M−N`` with ``a < b`` — ``N`` trades atoms of
``M`` for strictly lower-priority ones.  ``M`` is *perfect* iff no model
is preferable to it.  Every perfect model is minimal (``N ⊊ M`` is
vacuously preferable), and on positive databases PERF coincides with
``MM(DB)``.

The coNP perfect-model check "``M`` is perfect iff ``DB'`` has no model"
(paper, Section 5.1) is realized literally in :meth:`PriorityRelation.
preferable_witness`: ``DB'`` is the SAT query for a preferable model.

Complexity (paper, Tables 1 and 2): literal/formula inference
Π₂ᵖ-complete; model existence Σ₂ᵖ-complete (Table 2 row; perfect models
need not exist for unstratified databases).
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional

from ..errors import NotPositiveError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..sat.incremental import pooled_scope
from .base import Semantics, register


class PriorityRelation:
    """The priority preorder ``<=`` / strict ``<`` over a database's atoms.

    Computed as reachability in a weighted graph (weight 1 = strict edge,
    0 = non-strict); ``x < y`` iff some path ``x -> y`` carries a strict
    edge.
    """

    def __init__(self, db: DisjunctiveDatabase):
        if db.has_integrity_clauses:
            raise NotPositiveError(
                "PERF is defined for databases without integrity clauses"
            )
        atoms = sorted(db.vocabulary)
        self.atoms = atoms
        index = {a: i for i, a in enumerate(atoms)}
        n = len(atoms)
        # reach[i][j] in {None, 0, 1}: no path / non-strict path / strict.
        reach: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            reach[i][i] = 0
        for clause in db.clauses:
            heads = [index[a] for a in clause.head]
            for a in heads:
                for b in heads:
                    reach[a][b] = max(reach[a][b] or 0, 0)
                for b_atom in clause.body_pos:
                    b = index[b_atom]
                    reach[a][b] = max(reach[a][b] or 0, 0)
                for c_atom in clause.body_neg:
                    c = index[c_atom]
                    reach[a][c] = 1
        # Floyd–Warshall-style closure maximizing strictness.
        for k in range(n):
            for i in range(n):
                if reach[i][k] is None:
                    continue
                row_i, row_k = reach[i], reach[k]
                via = row_i[k]
                for j in range(n):
                    if row_k[j] is None:
                        continue
                    weight = max(via, row_k[j])
                    if row_i[j] is None or row_i[j] < weight:
                        row_i[j] = weight
        self._index = index
        self._reach = reach

    def leq(self, x: str, y: str) -> bool:
        """``x <= y`` (``y`` has priority at least ``x``'s)."""
        return self._reach[self._index[x]][self._index[y]] is not None

    def lt(self, x: str, y: str) -> bool:
        """``x < y`` (``y`` has strictly higher priority)."""
        return self._reach[self._index[x]][self._index[y]] == 1

    def higher_than(self, x: str) -> FrozenSet[str]:
        """All atoms of strictly higher priority than ``x``."""
        row = self._reach[self._index[x]]
        return frozenset(
            self.atoms[j] for j in range(len(self.atoms)) if row[j] == 1
        )

    def has_priority_cycle(self) -> bool:
        """Whether some atom has strictly higher priority than itself
        (happens exactly when the database is not locally stratified)."""
        return any(
            self._reach[i][i] == 1 for i in range(len(self.atoms))
        )


def priorities_for(db: DisjunctiveDatabase) -> PriorityRelation:
    """The database's priority relation, via the process-wide memo cache.

    The relation is a pure function of the (immutable) database and its
    Floyd–Warshall closure is cubic in ``|V|``, so every PERF entry point
    shares one instance per database.
    """
    from ..engine.cache import priority_relation_for

    return priority_relation_for(db)


def preferable(
    n: Interpretation, m: Interpretation, priorities: PriorityRelation
) -> bool:
    """``N ≺ M`` — the brute-force preference test."""
    if n == m:
        return False
    m_minus_n = m - n
    for a in n - m:
        if not any(priorities.lt(a, b) for b in m_minus_n):
            return False
    return True


def preferable_witness(
    db: DisjunctiveDatabase,
    model: Interpretation,
    priorities: PriorityRelation,
) -> Optional[Interpretation]:
    """A model preferable to ``model``, by one SAT call (the paper's
    "``M0`` is perfect iff ``DB'`` has no model" reduction: ``DB'`` is
    exactly the theory below)."""
    m = frozenset(model)
    in_m = sorted(m)
    out_m = sorted(frozenset(db.vocabulary) - m)
    with pooled_scope(db, context=("db",)) as solver:
        # N differs from M.
        solver.add_clause(
            [Literal.neg(a) for a in in_m] + [Literal.pos(a) for a in out_m]
        )
        # Every a in N−M needs a strictly-higher-priority b in M−N.
        for a in out_m:
            supports = [
                Literal.neg(b) for b in in_m if priorities.lt(a, b)
            ]
            solver.add_clause([Literal.neg(a)] + supports)
        if not solver.solve():
            return None
        return solver.model(restrict_to=db.vocabulary)


def is_perfect(
    db: DisjunctiveDatabase,
    model: Interpretation,
    priorities: Optional[PriorityRelation] = None,
) -> bool:
    """Whether ``model`` is a perfect model of ``db`` (coNP check)."""
    model = Interpretation(model)
    if not db.is_model(model):
        return False
    if priorities is None:
        priorities = priorities_for(db)
    return preferable_witness(db, model, priorities) is None


@register
class Perf(Semantics):
    """Perfect Models Semantics."""

    name = "perf"
    aliases = ("perfect", "perfect-models")
    description = "Perfect Models Semantics (Przymusinski)"

    def validate(self, db: DisjunctiveDatabase) -> None:
        if db.has_integrity_clauses:
            raise NotPositiveError(
                "PERF is defined for databases without integrity clauses"
            )

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        priorities = priorities_for(db)
        if self.engine == "brute":
            from ..models.enumeration import all_models

            models = all_models(db)
            return frozenset(
                m
                for m in models
                if not any(preferable(n, m, priorities) for n in models)
            )
        return frozenset(self._iter_perfect(db, priorities))

    def _iter_perfect(
        self,
        db: DisjunctiveDatabase,
        priorities: PriorityRelation,
        condition: Optional[Formula] = None,
    ) -> Iterator[Interpretation]:
        """Guess-and-check enumeration of perfect models: SAT candidates,
        coNP perfect check per candidate, exact blocking."""
        with pooled_scope(db, context=("db",)) as searcher:
            if condition is not None:
                searcher.add_formula(condition)
            for candidate in searcher.each_model(sorted(db.vocabulary)):
                if is_perfect(db, candidate, priorities):
                    yield candidate

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        return next(
            self._iter_perfect(db, priorities_for(db), condition), None
        )

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            # Table 1: O(1) — on positive databases the perfect models
            # are exactly the (always existing) minimal models.
            return True
        if self.engine == "brute":
            return super().has_model(db)
        priorities = priorities_for(db)
        for _model in self._iter_perfect(db, priorities):
            return True
        return False
