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
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence

from repro.logic.database import DisjunctiveDatabase
from repro.logic.interpretation import Interpretation, all_interpretations


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
