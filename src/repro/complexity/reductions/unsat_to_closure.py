"""coNP-hardness of DDR / PWS inference (Tables 1 and 2, Chan [5]).

Two executable reductions from CNF *unsatisfiability*:

**Formula inference, no integrity clauses (Table 1).**  Over fresh
"complement" atoms ``x~`` let ``DB = {x | x~ : x ∈ vars(C)}`` (a positive
IC-free DDB whose possibly-true set is everything, so both closures add
nothing).  With ``σ`` renaming ``¬x ↦ x~``,

    F(C)  =  σ(C)  →  ⋁_x (x ∧ x~)

is inferred under DDR (and PWS) iff ``C`` is unsatisfiable: a satisfying
assignment yields a *proper* cover model falsifying ``F``, while if ``C``
is unsatisfiable every proper cover falsifies ``σ(C)`` and every improper
cover satisfies the consequent.

**Literal inference, with integrity clauses (Table 2).**

    DB = {x | x~} ∪ {:- x, x~} ∪ {σ(c) :- u : c ∈ C} ∪ {u | d}

with fresh ``u, d``.  The integrity clauses make covers proper (exact
assignments); ``u`` is possibly-true (head of the disjunctive fact), so
the closure does not negate it, and ``DDR(DB) |= ¬u`` iff ``DB ∧ u`` is
unsatisfiable iff ``C`` is unsatisfiable.  The same instance works for
PWS literal inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...logic.clause import Clause
from ...logic.cnf import Cnf
from ...logic.database import DisjunctiveDatabase
from ...logic.formula import And, Formula, Implies, Var, conj, disj

#: Suffix of the complement atom.
COMP = "_c"
U_FRESH = "u_fresh"
D_FRESH = "d_fresh"


def _comp(atom: str) -> str:
    return atom + COMP


def _vars_of(cnf: Cnf) -> List[str]:
    return sorted({l.atom for clause in cnf for l in clause})


@dataclass(frozen=True)
class FormulaInferenceInstance:
    """unsat(cnf) ⟺ ``db`` infers ``formula`` under DDR (and PWS)."""

    db: DisjunctiveDatabase
    formula: Formula


def unsat_to_ddr_formula(cnf: Cnf) -> FormulaInferenceInstance:
    """Table 1 lower bound: coNP-hardness of formula inference under
    DDR/PWS for positive, IC-free DDBs."""
    variables = _vars_of(cnf)
    clauses = [Clause.fact(x, _comp(x)) for x in variables]
    db = DisjunctiveDatabase(clauses)
    renamed = conj(
        [
            disj(
                [
                    Var(l.atom) if l.positive else Var(_comp(l.atom))
                    for l in sorted(clause)
                ]
            )
            for clause in cnf
        ]
    )
    improper = disj([And(Var(x), Var(_comp(x))) for x in variables])
    return FormulaInferenceInstance(db, Implies(renamed, improper))


@dataclass(frozen=True)
class LiteralInferenceInstance:
    """unsat(cnf) ⟺ ``db`` infers ``not u`` under DDR (and PWS)."""

    db: DisjunctiveDatabase
    literal: str  # always "not u_fresh"


def unsat_to_ddr_literal(cnf: Cnf) -> LiteralInferenceInstance:
    """Table 2 lower bound: coNP-hardness of (negative) literal inference
    under DDR/PWS once integrity clauses are allowed."""
    variables = _vars_of(cnf)
    if U_FRESH in variables or D_FRESH in variables:
        raise ValueError("input CNF uses the reduction's fresh atoms")
    clauses: List[Clause] = []
    for x in variables:
        clauses.append(Clause.fact(x, _comp(x)))
        clauses.append(Clause.integrity([x, _comp(x)]))
    for clause in cnf:
        head = frozenset(
            l.atom if l.positive else _comp(l.atom) for l in clause
        )
        clauses.append(Clause(head, frozenset((U_FRESH,)), frozenset()))
    clauses.append(Clause.fact(U_FRESH, D_FRESH))
    return LiteralInferenceInstance(
        DisjunctiveDatabase(clauses), "not " + U_FRESH
    )
