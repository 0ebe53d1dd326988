"""Equivalence of databases under a semantics.

Two databases are *equivalent under semantics S* when S selects the same
model set for both.  For classical models this is one pair of UNSAT
calls; for the nonmonotonic semantics the checker searches for a model
selected by one database but not the other (with early exit), which is
how program-equivalence questions are usually decided in practice.

These checkers power several cross-validation tests (e.g. shifting
negation to heads preserves classical equivalence but not stable
equivalence) and are a useful public API in their own right.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Not
from ..logic.interpretation import Interpretation
from ..sat.incremental import pooled_scope
from .base import Semantics, get_semantics


def classically_equivalent(
    db1: DisjunctiveDatabase, db2: DisjunctiveDatabase
) -> bool:
    """Whether ``M(db1) = M(db2)`` over the union vocabulary
    (two UNSAT calls; each side's theory is a pooled solver and the other
    side's negation lives in a retractable scope)."""
    vocabulary = db1.vocabulary | db2.vocabulary
    for left, right in ((db1, db2), (db2, db1)):
        with pooled_scope(
            left.with_vocabulary(vocabulary), context=("db",)
        ) as sat:
            sat.add_formula(Not(right.to_formula()))
            if sat.solve():
                return False
    return True


def classical_difference_witness(
    db1: DisjunctiveDatabase, db2: DisjunctiveDatabase
) -> Optional[Interpretation]:
    """A model of exactly one of the two databases, or ``None``."""
    vocabulary = db1.vocabulary | db2.vocabulary
    for left, right in ((db1, db2), (db2, db1)):
        with pooled_scope(
            left.with_vocabulary(vocabulary), context=("db",)
        ) as sat:
            sat.add_formula(Not(right.to_formula()))
            if sat.solve():
                return sat.model(restrict_to=vocabulary)
    return None


def equivalent_under(
    db1: DisjunctiveDatabase,
    db2: DisjunctiveDatabase,
    semantics: "str | Semantics" = "egcwa",
) -> bool:
    """Whether the named semantics selects the same models for both.

    Requires the two databases to share a vocabulary (pad with
    :meth:`~repro.logic.database.DisjunctiveDatabase.with_vocabulary`
    first if needed) so that the model sets are comparable.
    """
    if isinstance(semantics, str):
        semantics = get_semantics(semantics)
    if db1.vocabulary != db2.vocabulary:
        vocabulary = db1.vocabulary | db2.vocabulary
        db1 = db1.with_vocabulary(vocabulary)
        db2 = db2.with_vocabulary(vocabulary)
    return semantics.model_set(db1) == semantics.model_set(db2)


def difference_witness_under(
    db1: DisjunctiveDatabase,
    db2: DisjunctiveDatabase,
    semantics: "str | Semantics" = "egcwa",
):
    """A model selected for exactly one of the databases, or ``None``.

    Returned as ``(model, side)`` with ``side`` 1 or 2 naming the
    database that selects it.
    """
    if isinstance(semantics, str):
        semantics = get_semantics(semantics)
    if db1.vocabulary != db2.vocabulary:
        vocabulary = db1.vocabulary | db2.vocabulary
        db1 = db1.with_vocabulary(vocabulary)
        db2 = db2.with_vocabulary(vocabulary)
    set1 = semantics.model_set(db1)
    set2 = semantics.model_set(db2)
    for model in sorted(set1 - set2, key=str):
        return model, 1
    for model in sorted(set2 - set1, key=str):
        return model, 2
    return None
