"""Bitset evaluation kernel.

Packs interpretations and clauses into Python ints over a per-database
atom index so the hot primitives of the brute enumerators and the
minimal-model machinery (clause satisfaction, subsumption, the
decomposition product law) run as mask arithmetic.  See
:mod:`repro.kernel.bitset` for the representation contract.
"""

from .bitset import (
    AtomTable,
    PackedDatabase,
    atom_table_for,
    clause_satisfied,
    is_proper_submask,
    packed_database_for,
    product_or_masks,
    subsets_in_table_order,
)

__all__ = [
    "AtomTable",
    "PackedDatabase",
    "atom_table_for",
    "clause_satisfied",
    "is_proper_submask",
    "packed_database_for",
    "product_or_masks",
    "subsets_in_table_order",
]
