"""Model enumeration with blocking clauses.

Enumeration is *projected*: models are reported (and blocked) as their
restriction to a chosen atom set, so Tseitin definition atoms or renamed
helper atoms never cause duplicate reports.  The loop itself is
:meth:`~repro.sat.incremental.Scope.each_model`; this module runs it on
a pooled scope of the database.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional

from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from .incremental import pooled_scope


def iter_models(
    db: Optional[DisjunctiveDatabase] = None,
    formula: Optional[Formula] = None,
    project: Optional[Iterable[str]] = None,
    max_models: Optional[int] = None,
) -> Iterator[Interpretation]:
    """Enumerate models of ``db ∧ formula`` projected onto ``project``.

    The database is the *permanent* theory of a pooled incremental
    solver (warm across repeated enumerations of the same database); the
    formula and the blocking clauses live in a scope and are retracted
    when enumeration ends.

    Args:
        db: optional database whose classical models are required.
        formula: optional extra formula constraint (Tseitin-encoded).
        project: atoms to project onto.  Defaults to the database
            vocabulary plus the formula's atoms.
        max_models: stop after this many models (``None`` = all).
    """
    default_project: set = set()
    if db is not None:
        default_project |= db.vocabulary
    if formula is not None:
        default_project |= formula.atoms()
    project_atoms = sorted(project if project is not None else default_project)

    with pooled_scope(db, context=("enumerate",)) as scope:
        if formula is not None:
            scope.add_formula(formula)
        yield from islice(scope.each_model(project_atoms), max_models)


def count_models(
    db: Optional[DisjunctiveDatabase] = None,
    formula: Optional[Formula] = None,
    project: Optional[Iterable[str]] = None,
) -> int:
    """The number of (projected) models."""
    return sum(1 for _ in iter_models(db=db, formula=formula, project=project))
