"""Model enumeration with blocking clauses.

Enumeration is *projected*: models are reported (and blocked) as their
restriction to a chosen atom set, so Tseitin definition atoms or renamed
helper atoms never cause duplicate reports.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..logic.atoms import Literal
from ..logic.cnf import Cnf, cnf_atoms
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..runtime.budget import check_deadline
from .incremental import pooled_scope


def blocking_clause(
    model: Interpretation, project: Iterable[str]
) -> List[Literal]:
    """The clause excluding exactly the models whose ``project``-restriction
    equals ``model``."""
    clause: List[Literal] = []
    for atom in project:
        if atom in model:
            clause.append(Literal.neg(atom))
        else:
            clause.append(Literal.pos(atom))
    return clause


def iter_models(
    db: Optional[DisjunctiveDatabase] = None,
    extra_cnf: Optional[Cnf] = None,
    formula: Optional[Formula] = None,
    project: Optional[Iterable[str]] = None,
    max_models: Optional[int] = None,
) -> Iterator[Interpretation]:
    """Enumerate models of ``db ∧ extra_cnf ∧ formula`` projected onto
    ``project``.

    The database and extra CNF are the *permanent* theory of a pooled
    incremental solver (warm across repeated enumerations of the same
    database); the formula and the blocking clauses live in a scope and
    are retracted when enumeration ends.

    Args:
        db: optional database whose classical models are required.
        extra_cnf: optional extra symbolic CNF constraints.
        formula: optional extra formula constraint (Tseitin-encoded).
        project: atoms to project onto.  Defaults to the database
            vocabulary plus the atoms of the extra constraints.
        max_models: stop after this many models (``None`` = all).
    """
    default_project: set = set()
    if db is not None:
        default_project |= db.vocabulary
    if extra_cnf is not None:
        default_project |= cnf_atoms(extra_cnf)
    if formula is not None:
        default_project |= formula.atoms()
    project_atoms = sorted(project if project is not None else default_project)

    with pooled_scope(
        db, extra_cnf=extra_cnf, context=("enumerate",)
    ) as scope:
        if formula is not None:
            scope.add_formula(formula)
        produced = 0
        while max_models is None or produced < max_models:
            check_deadline()
            if not scope.solve():
                return
            model = scope.model(restrict_to=project_atoms)
            yield model
            produced += 1
            block = blocking_clause(model, project_atoms)
            if not block:
                return  # projecting onto nothing: a single (empty) model
            scope.add_clause(block)


def count_models(
    db: Optional[DisjunctiveDatabase] = None,
    extra_cnf: Optional[Cnf] = None,
    formula: Optional[Formula] = None,
    project: Optional[Iterable[str]] = None,
) -> int:
    """The number of (projected) models."""
    return sum(
        1
        for _ in iter_models(
            db=db,
            extra_cnf=extra_cnf,
            formula=formula,
            project=project,
        )
    )
