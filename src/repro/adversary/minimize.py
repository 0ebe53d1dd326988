"""Delta-debugging minimizer for divergence witnesses.

Given a database on which some failure predicate holds (two engines
disagree, a certificate is violated, a metamorphic contract breaks), the
minimizer greedily shrinks it while the predicate keeps holding:

1. **Clause removal** — drop one clause at a time;
2. **Atom erasure** — erase one atom everywhere (from heads, bodies and
   the vocabulary; a head emptied by erasure becomes an integrity
   clause, which is still a legal witness).

Passes alternate to a fixpoint, so the result is **1-minimal**: no
single clause removal and no single atom erasure preserves the failure.
The walk order is drawn from a seeded RNG — the same seed always yields
the same witness — and the whole search is bounded by a predicate-call
budget so a pathological predicate cannot stall the hunter.

Predicates are expected to swallow their own exceptions (a shrunken
database may leave the syntactic class the predicate's semantics needs);
:func:`minimize_database` additionally treats a *raising* predicate as
"failure gone" so minimization is always safe to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase

#: Default ceiling on predicate evaluations per minimization.
DEFAULT_MAX_CHECKS = 600

Predicate = Callable[[DisjunctiveDatabase], bool]


@dataclass
class MinimizationResult:
    """Outcome of one delta-debugging run.

    Attributes:
        db: the minimized witness (still failing).
        checks: predicate evaluations spent.
        removed_clauses / removed_atoms: how much was shaved off.
        complete: ``True`` when a 1-minimal fixpoint was certified
            within the check budget, ``False`` when the budget ran out
            first (the witness is still valid, just maybe shrinkable).
    """

    db: DisjunctiveDatabase
    checks: int = 0
    removed_clauses: int = 0
    removed_atoms: int = 0
    complete: bool = True

    def render(self) -> str:
        status = "1-minimal" if self.complete else "budget-capped"
        return (
            f"{status}: {len(self.db.clauses)} clause(s), "
            f"{len(self.db.vocabulary)} atom(s) "
            f"(-{self.removed_clauses} clause(s), "
            f"-{self.removed_atoms} atom(s), {self.checks} check(s))"
        )


def erase_atom(db: DisjunctiveDatabase, atom: str) -> DisjunctiveDatabase:
    """``db`` with ``atom`` erased from every clause and the vocabulary.

    Clauses that become entirely empty (no head, no body) are dropped —
    an empty clause is not expressible in the surface syntax.
    """
    clauses: List[Clause] = []
    for clause in db.clauses:
        stripped = Clause(
            clause.head - {atom},
            clause.body_pos - {atom},
            clause.body_neg - {atom},
        )
        if stripped.head or stripped.body_pos or stripped.body_neg:
            clauses.append(stripped)
    return DisjunctiveDatabase(clauses, db.vocabulary - {atom})


class _Budget:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


def _holds(predicate: Predicate, db: DisjunctiveDatabase,
           budget: _Budget) -> bool:
    budget.used += 1
    try:
        return bool(predicate(db))
    except Exception:
        return False


def minimize_database(
    db: DisjunctiveDatabase,
    predicate: Predicate,
    max_checks: int = DEFAULT_MAX_CHECKS,
    seed: int = 0,
) -> MinimizationResult:
    """Greedily 1-minimize ``db`` while ``predicate`` keeps holding.

    Args:
        db: the failing database (``predicate(db)`` must be true).
        predicate: the failure check; called on candidate shrinks.
        max_checks: ceiling on predicate evaluations (the first,
            confirming call included).
        seed: walk-order seed; a fixed seed makes the result a pure
            function of ``(db, predicate)``.

    Raises:
        ValueError: when the predicate does not hold on the input.
    """
    budget = _Budget(max_checks)
    if not _holds(predicate, db, budget):
        raise ValueError("predicate does not hold on the input database")
    rng = random.Random(seed)
    current = db
    removed_clauses = removed_atoms = 0
    changed = True
    while changed and not budget.exhausted:
        changed = False
        # Pass 1: clause removal.
        clauses = sorted(current.clauses)
        rng.shuffle(clauses)
        for clause in clauses:
            if budget.exhausted:
                break
            candidate = DisjunctiveDatabase(
                current.clauses - {clause}, current.vocabulary
            )
            if _holds(predicate, candidate, budget):
                current = candidate
                removed_clauses += 1
                changed = True
        # Pass 2: atom erasure.
        atoms = sorted(current.vocabulary)
        rng.shuffle(atoms)
        for atom in atoms:
            if budget.exhausted:
                break
            if atom not in current.vocabulary:
                continue
            candidate = erase_atom(current, atom)
            if _holds(predicate, candidate, budget):
                current = candidate
                removed_atoms += 1
                changed = True
    # A fixpoint was certified only if the last full sweep both ran to
    # completion and removed nothing.
    complete = not changed and not budget.exhausted
    return MinimizationResult(
        db=current,
        checks=budget.used,
        removed_clauses=removed_clauses,
        removed_atoms=removed_atoms,
        complete=complete,
    )
