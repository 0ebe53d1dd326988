"""UMINSAT — unique minimal model (paper, Proposition 5.4 / Lemma 5.5).

``UMINSAT``: given a propositional CNF ``C``, does ``C`` have a *unique*
minimal model?  The paper shows (Prop. 5.4, after [7]) that UMINSAT is
coNP-hard and — unless the polynomial hierarchy collapses — lies outside
``coDᵖ``, and (Lemma 5.5) that it transforms to deciding whether a
*normal* logic program has a unique minimal model (using fresh atoms, as
in the paper's sketch "let a, b, c be new atoms not occurring in C").

This module provides:

* :func:`has_unique_minimal_model` — the decision procedure (find one
  minimal model, then one more SAT round for a model avoiding it);
* :func:`unsat_to_uminsat` — the coNP-hardness reduction:
  ``C`` is unsatisfiable  ⟺  ``D(C)`` has a unique minimal model, where
  ``D(C) = {c ∨ a : c ∈ C} ∪ {a ∨ b}`` with fresh ``a, b``.
  ``{a}`` is always a minimal model of ``D(C)``; any *other* minimal
  model must avoid ``a``, hence contain ``b`` and restrict to a model of
  ``C`` — so a second minimal model exists iff ``C`` is satisfiable.
* :func:`to_normal_program` — Lemma 5.5's target form: every disjunctive
  clause ``p1 | .. | pk :- B`` becomes the normal clause
  ``p1 :- B, not p2, .., not pk`` (the same classical formula, so the
  same minimal models), giving a *normal* logic program.
"""

from __future__ import annotations

import itertools
from typing import List

from ...logic.atoms import Literal
from ...logic.clause import Clause
from ...logic.cnf import Cnf
from ...logic.database import DisjunctiveDatabase
from ...sat.minimal import MinimalModelSolver
from .sat_to_model_existence import cnf_to_database

#: Fresh atoms of the reduction (the paper's "a, b, c").
A_FRESH = "a_fresh"
B_FRESH = "b_fresh"


def has_unique_minimal_model(db: DisjunctiveDatabase) -> bool:
    """Whether ``db`` has exactly one minimal model.

    Procedure: find a first minimal model ``M1``; a second one exists iff
    some model is not a superset of ``M1`` (any such model shrinks to a
    minimal model different from ``M1``).
    """
    with MinimalModelSolver(db) as engine:
        # Zero minimal models means an inconsistent database.
        return len(list(itertools.islice(engine.iter_minimal_models(), 2))) == 1


def unsat_to_uminsat(cnf: Cnf) -> DisjunctiveDatabase:
    """``cnf`` unsatisfiable  ⟺  the returned database has a unique
    minimal model (namely ``{a_fresh}``)."""
    atoms = {l.atom for clause in cnf for l in clause}
    if {A_FRESH, B_FRESH} & atoms:
        raise ValueError("input CNF uses the reduction's fresh atoms")
    widened = [
        frozenset(set(clause) | {Literal.pos(A_FRESH)}) for clause in cnf
    ]
    widened.append(frozenset({Literal.pos(A_FRESH), Literal.pos(B_FRESH)}))
    return cnf_to_database(widened)


def to_normal_program(db: DisjunctiveDatabase) -> DisjunctiveDatabase:
    """Lemma 5.5's normalization: push all but one head atom into the
    negative body.  The classical formula of each clause — and hence the
    (minimal) model set — is unchanged, but every head is a singleton,
    i.e. the result is a normal logic program (NLP).

    Integrity clauses are kept as they are (already headless).
    """
    normal: List[Clause] = []
    for clause in db.clauses:
        if len(clause.head) <= 1:
            normal.append(clause)
            continue
        heads = sorted(clause.head)
        keep, rest = heads[0], heads[1:]
        normal.append(
            Clause(
                frozenset((keep,)),
                clause.body_pos,
                clause.body_neg | frozenset(rest),
            )
        )
    return DisjunctiveDatabase(normal, db.vocabulary)


def unsat_to_nlp_unique_minimal(cnf: Cnf) -> DisjunctiveDatabase:
    """The full Lemma 5.5 pipeline: CNF → DDB with fresh atoms → NLP,
    with ``cnf`` unsatisfiable ⟺ unique minimal model."""
    return to_normal_program(unsat_to_uminsat(cnf))
