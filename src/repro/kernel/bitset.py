"""Bitset-packed interpretations and clauses.

The brute enumerators and the minimal-model machinery spend their time
in three primitive operations — clause satisfaction, subset/subsumption
tests, and the decomposition product law — and all of them collapse to
single-word integer arithmetic once interpretations are packed into
Python ints over a fixed per-database atom order.

:class:`AtomTable` fixes that order: bit ``i`` is the ``i``-th atom of
``sorted(vocabulary)``, which makes the numeric value of a packed
interpretation *identical* to the binary-counter rank used by
:func:`repro.logic.interpretation.all_interpretations` — mask order
**is** enumeration order, so sorting by :meth:`AtomTable.pack` puts any
set of interpretations in the serial enumerator's output order.

:class:`PackedDatabase` packs every clause into an ``(head, body_pos,
body_neg)`` mask triple; classical satisfaction of a candidate mask
``m`` is then three ANDs per clause::

    body fires   iff  (body_pos & m) == body_pos and not (body_neg & m)
    clause holds iff  body does not fire, or (head & m) != 0

Both objects are pure functions of the database and are memoized in the
process-wide engine cache exactly like the CNF translation
(:func:`atom_table_for` / :func:`packed_database_for`).

The kernel is the only internal representation of the brute
enumerators; tests pin it to a definition-literal frozenset reference
(``tests/reference_models.py``), sequence for sequence.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.database import DisjunctiveDatabase
from ..logic.interpretation import Interpretation


class AtomTable:
    """A fixed bijection between a vocabulary and bit positions.

    Bit ``i`` of a packed mask is the ``i``-th atom of the sorted
    vocabulary, so packed masks sort exactly like the binary-counter
    enumeration order of ``all_interpretations``.
    """

    __slots__ = ("atoms", "index", "full_mask")

    def __init__(self, vocabulary: Iterable[str]):
        self.atoms: Tuple[str, ...] = tuple(sorted(vocabulary))
        self.index: Dict[str, int] = {
            atom: i for i, atom in enumerate(self.atoms)
        }
        self.full_mask: int = (1 << len(self.atoms)) - 1

    def __len__(self) -> int:
        return len(self.atoms)

    def bit(self, atom: str) -> int:
        """The single-bit mask of one atom."""
        return 1 << self.index[atom]

    def pack(self, atoms: Iterable[str]) -> int:
        """The mask of a set of atoms (each must be in the table)."""
        index = self.index
        mask = 0
        for atom in atoms:
            mask |= 1 << index[atom]
        return mask

    def unpack(self, mask: int) -> Interpretation:
        """The :class:`Interpretation` a mask denotes."""
        atoms = self.atoms
        return Interpretation(
            atoms[i] for i in range(len(atoms)) if mask >> i & 1
        )

    def iter_atoms(self, mask: int) -> Iterator[str]:
        """The atoms of a mask in table (= sorted) order."""
        atoms = self.atoms
        for i in range(len(atoms)):
            if mask >> i & 1:
                yield atoms[i]


class PackedDatabase:
    """A database's clauses as ``(head, body_pos, body_neg)`` mask triples.

    Clause order is the database's canonical (sorted) order, matching
    :func:`repro.engine.cache.classical_clauses_for`.
    """

    __slots__ = ("table", "clauses")

    def __init__(
        self, db: DisjunctiveDatabase, table: Optional[AtomTable] = None
    ):
        self.table = table if table is not None else AtomTable(db.vocabulary)
        pack = self.table.pack
        self.clauses: Tuple[Tuple[int, int, int], ...] = tuple(
            (pack(c.head), pack(c.body_pos), pack(c.body_neg)) for c in db
        )

    def is_model(self, mask: int) -> bool:
        """Classical satisfaction of every clause by a candidate mask."""
        for head, body_pos, body_neg in self.clauses:
            if (
                (body_pos & mask) == body_pos
                and not (body_neg & mask)
                and not (head & mask)
            ):
                return False
        return True


def clause_satisfied(
    packed_clause: Tuple[int, int, int], mask: int
) -> bool:
    """Mask form of :meth:`repro.logic.clause.Clause.satisfied_by`."""
    head, body_pos, body_neg = packed_clause
    return (
        (body_pos & mask) != body_pos
        or bool(body_neg & mask)
        or bool(head & mask)
    )


def is_proper_submask(smaller: int, larger: int) -> bool:
    """Mask form of proper-subset comparison (``smaller < larger``)."""
    return smaller != larger and (smaller & larger) == smaller


def product_or_masks(parts: Sequence[Sequence[int]]) -> List[int]:
    """The decomposition product law on masks.

    Each part's masks live over a disjoint atom support, so the product
    of per-component model sets is the OR of one choice per part —
    ``MM(DB) = ⨂ MM(DBᵢ)`` becomes pure integer arithmetic.  Choices
    iterate in :func:`itertools.product` order, matching
    :func:`repro.sat.decompose.product_interpretations`.
    """
    import itertools

    out = []
    for choice in itertools.product(*parts):
        mask = 0
        for part_mask in choice:
            mask |= part_mask
        out.append(mask)
    return out


def subsets_in_table_order(
    table: AtomTable, atoms: Iterable[str]
) -> Iterator[Interpretation]:
    """All subsets of ``atoms`` in the shared table's enumeration order.

    The local binary counter runs over the atoms sorted by their table
    bit position; because bit positions are themselves sorted-atom
    order, this is simultaneously (a) the ``sorted(atoms)`` binary
    counter of ``all_interpretations`` and (b) increasing packed-mask
    order (the ``_iter_product`` free-atom contract).
    """
    ordered = sorted(atoms, key=table.index.__getitem__)
    for mask in range(1 << len(ordered)):
        yield Interpretation(
            ordered[i] for i in range(len(ordered)) if mask >> i & 1
        )


# ----------------------------------------------------------------------
# Memoized accessors (cached like the CNF translation; see
# repro.engine.cache for the store and its statistics).
# ----------------------------------------------------------------------
def atom_table_for(db: DisjunctiveDatabase) -> AtomTable:
    """The per-database :class:`AtomTable`, memoized."""
    from ..engine.cache import ENGINE_CACHE

    return ENGINE_CACHE.get_or_compute(
        "atom_table", db, lambda: AtomTable(db.vocabulary)
    )


def packed_database_for(db: DisjunctiveDatabase) -> PackedDatabase:
    """The per-database :class:`PackedDatabase`, memoized.

    Shares the memoized :func:`atom_table_for` table so every packed
    object over one database agrees on bit positions.
    """
    from ..engine.cache import ENGINE_CACHE

    return ENGINE_CACHE.get_or_compute(
        "packed_db", db, lambda: PackedDatabase(db, atom_table_for(db))
    )
