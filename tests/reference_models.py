"""Definition-literal model enumeration: the test oracle for the kernel.

Builds ``M(DB)``, ``MM(DB)``, ``MM(DB; P; Z)`` and lexicographically
minimal models straight from their definitions, over frozenset
interpretations.  It shares no code with :mod:`repro.kernel` or
:mod:`repro.models.enumeration` — only ``all_interpretations`` and
``DisjunctiveDatabase.is_model`` — so agreement with the bitset
enumerators is evidence, not tautology.

Every list comes in the binary-counter order of ``all_interpretations``
(the order the kernel enumerators promise), so tests compare sequences,
not just sets.  Exponential and quadratic by design: small inputs only.

The module also holds the definition-literal reference for CIRC, the
one ECWA (and so its ``circ`` alias) is tested against: Lifschitz's
second-order axiom ``Circ(DB; P; Z)``, decided at a concrete model by
:class:`CircumscriptionChecker` and rendered as a 2QBF sentence by
:func:`circumscription_axiom`.  Unlike the enumeration references above,
this one goes through the package's SAT oracle (the checker) and its
QBF solver (the axiom's validity) — but not through
:mod:`repro.sat.minimal`, which ECWA's procedures use.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence

from repro.logic.atoms import Literal
from repro.logic.database import DisjunctiveDatabase
from repro.logic.formula import Not, Var, conj, disj
from repro.logic.interpretation import Interpretation, all_interpretations
from repro.logic.transform import rename_atoms
from repro.qbf.formula import QBF2, substitute
from repro.sat.incremental import pooled_scope


def all_models(db: DisjunctiveDatabase) -> List[Interpretation]:
    """``M(DB)``: every interpretation satisfying every clause."""
    return [m for m in all_interpretations(db.vocabulary) if db.is_model(m)]


def _undominated(models: List[Interpretation], preferred) -> List[Interpretation]:
    return [m for m in models if not any(preferred(n, m) for n in models)]


def minimal_models(db: DisjunctiveDatabase) -> List[Interpretation]:
    """``MM(DB)``: the models with no proper submodel."""
    return _undominated(all_models(db), lambda n, m: n < m)


def pz_preferred(
    n: Interpretation,
    m: Interpretation,
    p: FrozenSet[str],
    q: FrozenSet[str],
) -> bool:
    """``N <_{P;Z} M``: same ``Q`` part, strictly smaller ``P`` part."""
    if (n & q) != (m & q):
        return False
    return (n & p) < (m & p)


def pz_minimal_models(
    db: DisjunctiveDatabase, p: Iterable[str], z: Iterable[str]
) -> List[Interpretation]:
    """``MM(DB; P; Z)``: the ``<_{P;Z}``-minimal models."""
    p, z = frozenset(p), frozenset(z)
    q = frozenset(db.vocabulary) - p - z
    return _undominated(
        all_models(db), lambda n, m: pz_preferred(n, m, p, q)
    )


def lex_preferred(
    n: Interpretation,
    m: Interpretation,
    levels: Sequence[FrozenSet[str]],
    q: FrozenSet[str],
) -> bool:
    """``N <_{P1>...>Pr;Z} M`` (lexicographic by priority level)."""
    if (n & q) != (m & q):
        return False
    for level in levels:
        n_part, m_part = n & level, m & level
        if n_part == m_part:
            continue
        return n_part < m_part
    return False


def lex_minimal_models(
    db: DisjunctiveDatabase,
    levels: Sequence[Iterable[str]],
    z: Iterable[str] = (),
) -> List[Interpretation]:
    """The ``<_{P1>...>Pr;Z}``-minimal models."""
    level_sets = [frozenset(level) for level in levels]
    q = (
        frozenset(db.vocabulary)
        - frozenset(itertools.chain.from_iterable(level_sets))
        - frozenset(z)
    )
    return _undominated(
        all_models(db), lambda n, m: lex_preferred(n, m, level_sets, q)
    )


# ----------------------------------------------------------------------
# CIRC from Lifschitz's formula
# ----------------------------------------------------------------------
def _primed(atom: str) -> str:
    return atom + "__prime"


def circumscription_axiom(db: DisjunctiveDatabase, p, z, model) -> QBF2:
    """Lifschitz's axiom for a concrete model, as an explicit 2QBF.

    For a partition ``⟨P; Q; Z⟩``::

        Circ(DB; P; Z) = DB[P; Z] ∧ ¬∃P' Z' (DB[P'; Z'] ∧ P' < P)

    ``M |= Circ(DB; P; Z)`` iff ``M |= DB`` and the sentence
    ``∀P' Z' . ¬(DB[P'; Z'] ∧ P' < P(M))`` is valid, where ``Q`` is
    instantiated to ``M``'s values.  Returns that sentence as a
    :class:`~repro.qbf.formula.QBF2` with an empty existential block.
    """
    p = frozenset(p)
    z = frozenset(z)
    q = frozenset(db.vocabulary) - p - z
    model = frozenset(model)
    renamed_db = rename_atoms(db, {a: _primed(a) for a in p | z})
    matrix_parts = [renamed_db.to_formula()]
    # P' <= P(M): primed copies of M-false P-atoms are false.
    for atom in sorted(p - model):
        matrix_parts.append(Not(Var(_primed(atom))))
    # ... strictly below: some M-true P-atom dropped.
    matrix_parts.append(disj([Not(Var(_primed(a))) for a in sorted(p & model)]))
    # Q is shared: substitute M's values.
    matrix = substitute(conj(matrix_parts), {a: (a in model) for a in q})
    universal = frozenset(_primed(a) for a in p | z)
    # ∀P'Z' . ¬(smaller-model matrix): encode as ∀X ∃∅ . ¬matrix.
    return QBF2(False, universal, frozenset(), Not(matrix))


class CircumscriptionChecker:
    """Decides ``M |= Circ(DB; P; Z)`` by Lifschitz's formula.

    The second-order witness ``(P', Z')`` becomes a renamed copy of the
    database over primed atoms (``Q`` stays shared), with ``P' ≤ P``
    enforced against the concrete model ``M`` and strictness as a clause;
    one SAT call decides whether a smaller model exists.
    """

    def __init__(self, db: DisjunctiveDatabase, p, z):
        self.db = db
        self.p = frozenset(p)
        self.z = frozenset(z)
        self.q = frozenset(db.vocabulary) - self.p - self.z
        db.check_partition(self.p, self.q, self.z)
        self.renamed_db = rename_atoms(
            db, {a: _primed(a) for a in self.p | self.z}
        )

    def is_circumscribed(self, model: Interpretation) -> bool:
        """Whether ``model`` satisfies the circumscription axiom."""
        if not self.db.is_model(model):
            return False
        p_true = sorted(a for a in self.p if a in model)
        if not p_true:
            return True  # nothing below the empty P-part
        with pooled_scope(self.renamed_db, context=("db",)) as sat:
            # Q is shared between the copies: fix it to M's values.
            for atom in sorted(self.q):
                sat.add_unit(
                    Literal.pos(atom) if atom in model else Literal.neg(atom)
                )
            # P' ≤ P(M): primed P-atoms false wherever M makes them false.
            for atom in sorted(self.p - model):
                sat.add_unit(Literal.neg(_primed(atom)))
            # Strictness P' < P: some true P-atom of M is false in the
            # copy.
            sat.add_clause([Literal.neg(_primed(a)) for a in p_true])
            return not sat.solve()

    def circumscribed_models(self) -> List[Interpretation]:
        """``Circ(DB; P; Z)``'s models, filtered from :func:`all_models`."""
        return [m for m in all_models(self.db) if self.is_circumscribed(m)]
