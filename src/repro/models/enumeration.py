"""Brute-force model theory.

Explicit-enumeration implementations of every model-selection notion used
by the paper.  They are exponential in ``|V|`` by construction and serve
as *ground truth* for the oracle-backed engines in the test suite, and as
the reference semantics for small worked examples.

Every sweep runs on the bitset kernel (:mod:`repro.kernel`): candidates
are Python ints over the database's :class:`~repro.kernel.AtomTable`
and become :class:`~repro.logic.interpretation.Interpretation` objects
only at the API boundary.  Mask order is the binary-counter enumeration
order, so every output list comes in that order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from ..kernel import (
    atom_table_for,
    is_proper_submask,
    packed_database_for,
    product_or_masks,
)
from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import Interpretation
from ..runtime.budget import note_nodes


def all_models(db: DisjunctiveDatabase) -> List[Interpretation]:
    """``M(DB)`` — every classical model, by explicit enumeration.

    Every candidate interpretation counts as one node against an active
    :class:`~repro.runtime.budget.BudgetScope`, so the ``2^|V|`` sweep is
    cut off by node ceilings and deadlines.
    """
    packed = packed_database_for(db)
    table = packed.table
    out = []
    for mask in range(1 << len(table)):
        note_nodes(1)
        if packed.is_model(mask):
            out.append(table.unpack(mask))
    return out


def _product_in_rank_order(
    db: DisjunctiveDatabase, per_part: Sequence[List[Interpretation]]
) -> List[Interpretation]:
    """The decomposition product of per-component model lists, in the
    enumerator's binary-counter order."""
    table = atom_table_for(db)
    part_masks = [[table.pack(m) for m in models] for models in per_part]
    return [
        table.unpack(mask) for mask in sorted(product_or_masks(part_masks))
    ]


def _undominated(
    db: DisjunctiveDatabase, models: List[Interpretation], preferred
) -> List[Interpretation]:
    """The models no other model is ``preferred(other_mask, mask)`` to.

    The quadratic comparison pass ticks one budget node per candidate,
    since it can dominate the enumeration itself.
    """
    pack = atom_table_for(db).pack
    masks = [pack(m) for m in models]
    out = []
    for m, mask in zip(models, masks):
        note_nodes(1)
        if not any(preferred(n, mask) for n in masks):
            out.append(m)
    return out


def minimal_models_brute(
    db: DisjunctiveDatabase, decompose: bool = True
) -> List[Interpretation]:
    """``MM(DB)`` — subset-minimal models, by pairwise comparison.

    With ``decompose=True`` (default) the clause graph is split into
    connected components first and ``MM(DB) = ⨂ MM(DBᵢ)`` is assembled as
    a product: the node count drops from ``2^|V|`` to ``Σᵢ 2^|Vᵢ|`` plus
    the (output-sized) product.  ``decompose=False`` is the pristine
    single-sweep reference the decomposed path is tested against.
    """
    if decompose:
        from ..sat.decompose import decompose as _split

        parts = _split(db)
        if parts is not None:
            return _product_in_rank_order(
                db,
                [minimal_models_brute(part, decompose=False) for part in parts],
            )
    return _undominated(db, all_models(db), is_proper_submask)


def pz_minimal_models_brute(
    db: DisjunctiveDatabase,
    p: Iterable[str],
    z: Iterable[str],
    decompose: bool = True,
) -> List[Interpretation]:
    """``MM(DB; P; Z)`` by explicit enumeration.

    ``N <_{P;Z} M`` iff ``N`` and ``M`` agree on ``Q`` and ``N``'s ``P``
    part is a proper subset of ``M``'s.  The preference order compares
    components pointwise, so it factors over connected components
    exactly like plain minimality: ``decompose=True`` assembles the
    answer as a product of per-component sweeps (with the partition
    restricted to each component).
    """
    p = frozenset(p)
    z = frozenset(z)
    q = frozenset(db.vocabulary) - p - z
    db.check_partition(p, q, z)
    if decompose:
        from ..sat.decompose import decompose as _split

        parts = _split(db)
        if parts is not None:
            return _product_in_rank_order(
                db,
                [
                    pz_minimal_models_brute(
                        part,
                        p & part.vocabulary,
                        z & part.vocabulary,
                        decompose=False,
                    )
                    for part in parts
                ],
            )
    table = atom_table_for(db)
    p_mask, q_mask = table.pack(p), table.pack(q)

    def preferred(n: int, m: int) -> bool:
        return (n & q_mask) == (m & q_mask) and is_proper_submask(
            n & p_mask, m & p_mask
        )

    return _undominated(db, all_models(db), preferred)


def prioritized_minimal_models_brute(
    db: DisjunctiveDatabase,
    levels: Sequence[Iterable[str]],
    z: Iterable[str] = (),
) -> List[Interpretation]:
    """Lexicographically minimal models by explicit enumeration.

    ``N <_{P1>...>Pr;Z} M`` iff ``N`` and ``M`` agree on ``Q`` and, at
    the first priority level where they differ, ``N``'s part is a proper
    subset of ``M``'s.
    """
    level_sets = [frozenset(level) for level in levels]
    z = frozenset(z)
    q = (
        frozenset(db.vocabulary)
        - frozenset(itertools.chain.from_iterable(level_sets))
        - z
    )
    table = atom_table_for(db)
    vocabulary = frozenset(table.atoms)
    level_masks = [table.pack(level & vocabulary) for level in level_sets]
    q_mask = table.pack(q)

    def preferred(n: int, m: int) -> bool:
        if (n & q_mask) != (m & q_mask):
            return False
        for level in level_masks:
            n_part, m_part = n & level, m & level
            if n_part != m_part:
                return is_proper_submask(n_part, m_part)
        return False

    return _undominated(db, all_models(db), preferred)


def models_entail_brute(models: Iterable[Interpretation], formula) -> bool:
    """Whether a formula holds in every model of an explicit model set.

    By the convention standard for these semantics (and required for the
    closure readings to coincide with the model-theoretic ones), an empty
    model set entails everything.
    """
    return all(m.satisfies(formula) for m in models)
