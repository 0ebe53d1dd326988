"""WFS — the Well-Founded Semantics of van Gelder, Ross & Schlipf [29].

PDSM is defined by the paper as the extension of WFS to disjunctive
databases, so the non-disjunctive WFS is implemented here as the
reference point: a *polynomial-time* alternating-fixpoint computation for
normal logic programs (single-atom heads, no integrity clauses).

Van Gelder's alternating fixpoint: for a set ``S`` of atoms let
``Γ(S)`` be the least model of the Gelfond–Lifschitz reduct ``P^S`` (a
definite program, so its least model is a linear-time fixpoint).  ``Γ``
is antitone, ``Γ²`` monotone; with

    T* = lfp(Γ²)        (the well-founded *true* atoms)
    P* = Γ(T*)          (the *possible* atoms; its complement is false)

the well-founded model is the 3-valued interpretation ``(T*, P*)``.

Relationships verified in the tests: the well-founded model is a partial
stable model (PDSM) of the program; when it is total it is the unique
stable model; and on stratified programs it coincides with the perfect
model.
"""

from __future__ import annotations

from typing import FrozenSet

from ..errors import NotPositiveError
from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import ThreeValuedInterpretation
from ..logic.transform import gl_reduct


def _check_normal_program(db: DisjunctiveDatabase) -> None:
    if not db.is_normal_nondisjunctive or db.has_integrity_clauses:
        raise NotPositiveError(
            "WFS is defined for normal logic programs "
            "(single-atom heads, no integrity clauses)"
        )


def least_model_definite(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """Least model of a definite (negation-free, single-head) database,
    by the immediate-consequence fixpoint."""
    derived: set = set()
    changed = True
    pending = list(db.clauses)
    while changed:
        changed = False
        remaining = []
        for clause in pending:
            if clause.body_pos <= derived:
                (head_atom,) = clause.head
                if head_atom not in derived:
                    derived.add(head_atom)
                    changed = True
            else:
                remaining.append(clause)
        pending = remaining
    return frozenset(derived)


def gamma(db: DisjunctiveDatabase, assumed_true: FrozenSet[str]
          ) -> FrozenSet[str]:
    """``Γ(S)``: least model of the GL reduct ``P^S``."""
    return least_model_definite(gl_reduct(db, assumed_true))


def well_founded_model(
    db: DisjunctiveDatabase,
) -> ThreeValuedInterpretation:
    """The well-founded model of a normal logic program (polynomial).

    Returns a 3-valued interpretation: atoms in ``true`` are well-founded
    true, atoms outside ``possible`` well-founded false, the rest
    undefined.
    """
    _check_normal_program(db)
    true_atoms: FrozenSet[str] = frozenset()
    while True:
        next_true = gamma(db, gamma(db, true_atoms))
        if next_true == true_atoms:
            break
        true_atoms = next_true
    possible = gamma(db, true_atoms)
    return ThreeValuedInterpretation(true_atoms, possible)
