"""CNF preprocessing: unit propagation, pure literals, subsumption.

Operates on symbolic CNF (:data:`repro.logic.cnf.Cnf`).  The paper's
decision procedures don't need preprocessing for correctness, but the
reductions produce structured CNFs where these classical simplifications
shrink instances substantially; the ablation benchmarks quantify it.

All transformations are *model-preserving on the remaining atoms*:
:func:`simplify_cnf` returns the residual CNF together with the literals
it fixed, and every model of the original is (fixed literals ∪ a model of
the residual), except pure-literal elimination which preserves
satisfiability and at least one model rather than the full model set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..logic.atoms import Literal
from ..logic.cnf import Cnf, CnfClause


@dataclass
class SimplificationResult:
    """Outcome of :func:`simplify_cnf`.

    Attributes:
        cnf: the residual clauses.
        fixed: literals forced by unit propagation (and, when enabled,
            chosen by pure-literal elimination).
        unsatisfiable: ``True`` when a contradiction was derived; the
            residual CNF then contains the empty clause.
    """

    cnf: Cnf
    fixed: FrozenSet[Literal]
    unsatisfiable: bool


def unit_propagate(cnf: Cnf) -> Tuple[Cnf, Set[Literal], bool]:
    """Propagate unit clauses to fixpoint.

    Returns ``(residual, forced_literals, unsatisfiable)``.
    """
    clauses: List[CnfClause] = list(cnf)
    forced: Dict[str, Literal] = {}
    while True:
        unit: Optional[Literal] = None
        for clause in clauses:
            if len(clause) == 1:
                (unit,) = clause
                break
        if unit is None:
            return clauses, set(forced.values()), False
        if forced.get(unit.atom, unit) != unit:
            # complementary units
            return [frozenset()], set(forced.values()), True
        forced[unit.atom] = unit
        reduced: List[CnfClause] = []
        for clause in clauses:
            if unit in clause:
                continue
            if -unit in clause:
                clause = clause - {-unit}
                if not clause:
                    return [frozenset()], set(forced.values()), True
            reduced.append(clause)
        clauses = reduced


def pure_literals(cnf: Cnf) -> FrozenSet[Literal]:
    """Literals whose complement never occurs."""
    seen: Set[Literal] = set()
    for clause in cnf:
        seen.update(clause)
    return frozenset(l for l in seen if -l not in seen)


def eliminate_pure_literals(cnf: Cnf) -> Tuple[Cnf, Set[Literal]]:
    """Satisfy-and-remove clauses containing a pure literal, to fixpoint."""
    clauses: List[CnfClause] = list(cnf)
    chosen: Set[Literal] = set()
    while True:
        pure = pure_literals(clauses)
        if not pure:
            return clauses, chosen
        chosen.update(pure)
        clauses = [c for c in clauses if not (c & pure)]


def remove_subsumed(cnf: Cnf) -> Cnf:
    """Drop clauses that are supersets of another clause (subsumption)."""
    ordered = sorted(set(cnf), key=len)
    kept: List[CnfClause] = []
    for clause in ordered:
        if not any(small <= clause for small in kept):
            kept.append(clause)
    return kept


def self_subsume(cnf: Cnf) -> Cnf:
    """Self-subsuming resolution: if ``C ∨ l`` and ``D`` with
    ``D ⊆ C ∨ ¬l`` exist, strengthen ``C ∨ l`` to ``C``.  One pass."""
    clauses = list(set(cnf))
    strengthened: List[CnfClause] = []
    for clause in clauses:
        current = clause
        for literal in list(clause):
            pivot = (current - {literal}) | {-literal}
            if any(other != current and other <= pivot
                   for other in clauses):
                current = current - {literal}
        strengthened.append(current)
    return strengthened


def simplify_cnf(
    cnf: Cnf,
    use_pure_literals: bool = False,
    use_subsumption: bool = True,
) -> SimplificationResult:
    """Run the preprocessing pipeline to fixpoint.

    Pure-literal elimination is off by default because it does not
    preserve the full model set (only satisfiability).
    """
    clauses: Cnf = list(cnf)
    fixed: Set[Literal] = set()
    while True:
        before = {frozenset(c) for c in clauses}
        clauses, forced, unsat = unit_propagate(clauses)
        fixed |= forced
        if unsat:
            return SimplificationResult([frozenset()], frozenset(fixed), True)
        if use_subsumption:
            clauses = remove_subsumed(self_subsume(clauses))
        if use_pure_literals:
            clauses, chosen = eliminate_pure_literals(clauses)
            fixed |= chosen
        if {frozenset(c) for c in clauses} == before:
            return SimplificationResult(
                list(clauses), frozenset(fixed), False
            )
