"""Clark completion and supported models (extension).

The stable-model literature the paper builds on (Gelfond & Lifschitz
[10], Marek & Truszczyński [15]) contrasts stable models with the older
*supported* models: the models of Clark's completion, where every true
atom must have a rule with true body deriving it.  Schaerf's companion
PODS-93 paper [26], which the paper cites, analyzes their complexity for
non-Horn programs.  This module provides, for normal logic programs:

* :func:`clark_completion` — the completion as a propositional formula:
  for every atom ``a``, ``a <-> B_1 ∨ ... ∨ B_k`` over the bodies of the
  rules with head ``a`` (an empty disjunction makes ``a`` false);
* :func:`is_supported_model` — direct definition check: a model where
  each true atom has a firing rule;
* :class:`Supported` — the semantics (registered as ``"supported"``).

Classical facts verified in the tests: supported models are exactly the
models of the completion; every stable model is supported; and on
*tight* programs (no cycles through positive bodies) supported = stable
— Fages' theorem.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from ..errors import NotPositiveError
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Iff, Not, Var, conj, disj
from ..logic.interpretation import Interpretation
from ..sat.incremental import pooled_scope
from .base import Semantics, register


def _check_normal(db: DisjunctiveDatabase) -> None:
    if not db.is_normal_nondisjunctive:
        raise NotPositiveError(
            "Clark completion is defined for normal (single-head) programs"
        )


def clark_completion(db: DisjunctiveDatabase) -> Formula:
    """The completion ``comp(DB)`` as one propositional formula.

    Integrity clauses are kept as their classical reading (they have no
    head to complete).
    """
    _check_normal(db)
    bodies: Dict[str, List[Formula]] = {a: [] for a in db.vocabulary}
    constraints: List[Formula] = []
    for clause in db.clauses:
        body = conj(
            [Var(b) for b in sorted(clause.body_pos)]
            + [Not(Var(c)) for c in sorted(clause.body_neg)]
        )
        if clause.is_integrity:
            constraints.append(Not(body))
        else:
            (head,) = clause.head
            bodies[head].append(body)
    parts: List[Formula] = [
        Iff(Var(atom), disj(atom_bodies))
        for atom, atom_bodies in sorted(bodies.items())
    ]
    return conj(parts + constraints)


def is_supported_model(
    db: DisjunctiveDatabase, model: Interpretation
) -> bool:
    """Direct definition: a classical model in which every true atom has
    a rule with that head whose body is true (polynomial check)."""
    _check_normal(db)
    model = frozenset(model)
    if not db.is_model(model):
        return False
    for atom in model:
        supported = any(
            clause.head == {atom} and clause.body_true_in(model)
            for clause in db.clauses
        )
        if not supported:
            return False
    return True


def positive_dependency_cycles(db: DisjunctiveDatabase) -> bool:
    """Whether the *positive* dependency graph has a cycle (a non-tight
    program, where supported and stable models may diverge)."""
    _check_normal(db)
    edges: Dict[str, set] = {a: set() for a in db.vocabulary}
    for clause in db.clauses:
        for head in clause.head:
            edges[head].update(clause.body_pos)
    # DFS cycle detection.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {a: WHITE for a in db.vocabulary}

    def visit(node: str) -> bool:
        color[node] = GRAY
        for neighbour in edges[node]:
            if color[neighbour] == GRAY:
                return True
            if color[neighbour] == WHITE and visit(neighbour):
                return True
        color[node] = BLACK
        return False

    return any(color[a] == WHITE and visit(a) for a in sorted(db.vocabulary))


def is_tight(db: DisjunctiveDatabase) -> bool:
    """Fages' condition: no cycle through positive bodies."""
    return not positive_dependency_cycles(db)


@register
class Supported(Semantics):  # lint: ok RPR005 -- comparison semantics, no table row
    """Supported models = models of the Clark completion (for NLPs)."""

    name = "supported"
    aliases = ("completion", "clark")
    description = "Supported models / Clark completion (extension)"

    def validate(self, db: DisjunctiveDatabase) -> None:
        _check_normal(db)

    def _completion_scope(self, db: DisjunctiveDatabase):
        """A scope on a pooled solver whose permanent theory is
        ``comp(DB)`` — the completion is Tseitin-encoded once per solver,
        not once per query."""
        vocabulary = tuple(sorted(db.vocabulary))

        def setup(solver) -> None:
            solver.intern(vocabulary)
            solver.add_formula(clark_completion(db))

        return pooled_scope(context=("completion", db), setup=setup)

    def model_set(self, db: DisjunctiveDatabase) -> FrozenSet[Interpretation]:
        self.validate(db)
        if self.engine == "brute":
            from ..logic.interpretation import all_interpretations

            return frozenset(
                m
                for m in all_interpretations(db.vocabulary)
                if is_supported_model(db, m)
            )
        with self._completion_scope(db) as sat:
            return frozenset(sat.each_model(sorted(db.vocabulary)))

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        # One SAT call: comp(DB) ∧ condition.
        with self._completion_scope(db) as sat:
            sat.add_formula(condition)
            if not sat.solve():
                return None
            return sat.model(restrict_to=db.vocabulary)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if self.engine == "brute":
            return super().has_model(db)
        with self._completion_scope(db) as sat:
            return sat.solve()
