"""Disjunctive databases.

A :class:`DisjunctiveDatabase` is a finite set of clauses over a finite
vocabulary of propositional variables, following the paper's Section 2 and
the classification of Fernandez & Minker [9]:

* **DDDB** (disjunctive deductive database): no negation in bodies,
  i.e. ``DB ⊆ C+``.  The paper's Table 1 additionally excludes integrity
  clauses ("positive" databases).
* **DSDB** (disjunctive stratified database): negation only across strata
  (see :mod:`repro.semantics.stratification`).
* **DNDB** (disjunctive normal database): arbitrary clauses.

The vocabulary may strictly contain the atoms occurring in clauses (the
paper's ``V``); interpretations range over the vocabulary.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from ..errors import PartitionError
from .clause import Clause


class DisjunctiveDatabase:
    """An immutable propositional disjunctive database.

    Args:
        clauses: the clauses of the database (duplicates collapse).
        vocabulary: the variable universe ``V``.  Defaults to the atoms
            occurring in the clauses; if given, it must contain them.

    The database behaves as a sized, iterable, hashable collection of
    clauses.  Equality is structural on ``(clauses, vocabulary)``.
    """

    __slots__ = ("_clauses", "_vocabulary", "_hash")

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        vocabulary: Optional[Iterable[str]] = None,
    ):
        clause_set = frozenset(clauses)
        occurring = frozenset(a for c in clause_set for a in c.atoms)
        if vocabulary is None:
            vocab = occurring
        else:
            vocab = frozenset(vocabulary)
            missing = occurring - vocab
            if missing:
                raise PartitionError(
                    "vocabulary does not cover clause atoms: "
                    + ", ".join(sorted(missing))
                )
        self._clauses: FrozenSet[Clause] = clause_set
        self._vocabulary: FrozenSet[str] = vocab
        self._hash = hash((self._clauses, self._vocabulary))

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> FrozenSet[Clause]:
        """The clause set."""
        return self._clauses

    @property
    def vocabulary(self) -> FrozenSet[str]:
        """The variable universe ``V``."""
        return self._vocabulary

    def __iter__(self) -> Iterator[Clause]:
        return iter(sorted(self._clauses))

    def __len__(self) -> int:
        return len(self._clauses)

    def __contains__(self, clause: object) -> bool:
        return clause in self._clauses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisjunctiveDatabase):
            return NotImplemented
        return (
            self._clauses == other._clauses
            and self._vocabulary == other._vocabulary
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self)

    def __repr__(self) -> str:
        return (
            f"DisjunctiveDatabase({len(self._clauses)} clauses, "
            f"|V|={len(self._vocabulary)})"
        )

    # ------------------------------------------------------------------
    # Syntactic classification (paper Section 2 / [9])
    # ------------------------------------------------------------------
    @property
    def has_negation(self) -> bool:
        """Whether any clause body uses ``not``."""
        return any(c.body_neg for c in self._clauses)

    @property
    def has_integrity_clauses(self) -> bool:
        """Whether any clause has an empty head."""
        return any(c.is_integrity for c in self._clauses)

    @property
    def is_positive(self) -> bool:
        """Table 1 regime: no integrity clauses and no negation."""
        return not self.has_negation and not self.has_integrity_clauses

    @property
    def is_deductive(self) -> bool:
        """DDDB: no negation in bodies (integrity clauses allowed)."""
        return not self.has_negation

    @property
    def is_normal_nondisjunctive(self) -> bool:
        """Whether every head has at most one atom (an NLP / NDDB)."""
        return all(len(c.head) <= 1 for c in self._clauses)

    @property
    def is_horn(self) -> bool:
        """Whether every clause is Horn (<=1 head atom, positive body)."""
        return all(c.is_horn for c in self._clauses)

    @property
    def integrity_clauses(self) -> FrozenSet[Clause]:
        """The integrity (empty-head) clauses."""
        return frozenset(c for c in self._clauses if c.is_integrity)

    @property
    def proper_clauses(self) -> FrozenSet[Clause]:
        """The clauses with a nonempty head."""
        return frozenset(c for c in self._clauses if not c.is_integrity)

    # ------------------------------------------------------------------
    # Basic semantics helpers
    # ------------------------------------------------------------------
    def is_model(self, interpretation: AbstractSet[str]) -> bool:
        """Classical satisfaction of every clause by ``interpretation``
        (given as the set of true atoms)."""
        return all(c.satisfied_by(interpretation) for c in self._clauses)

    def to_formula(self):
        """The database as one conjunctive
        :class:`~repro.logic.formula.Formula` (classical reading)."""
        from .formula import conj

        return conj([c.to_formula() for c in self])

    # ------------------------------------------------------------------
    # Functional updates (databases are immutable)
    # ------------------------------------------------------------------
    def with_clauses(self, extra: Iterable[Clause]) -> "DisjunctiveDatabase":
        """A new database with ``extra`` clauses added (same vocabulary,
        widened if the new clauses mention new atoms)."""
        extra = list(extra)
        new_atoms = frozenset(a for c in extra for a in c.atoms)
        return DisjunctiveDatabase(
            self._clauses | frozenset(extra), self._vocabulary | new_atoms
        )

    def with_vocabulary(self, extra_atoms: Iterable[str]) -> "DisjunctiveDatabase":
        """A new database whose vocabulary additionally contains
        ``extra_atoms``."""
        return DisjunctiveDatabase(
            self._clauses, self._vocabulary | frozenset(extra_atoms)
        )

    def restricted_to_occurring_atoms(self) -> "DisjunctiveDatabase":
        """A copy whose vocabulary is exactly the occurring atoms."""
        return DisjunctiveDatabase(self._clauses)

    # ------------------------------------------------------------------
    # Partitions for CCWA / ECWA / ICWA
    # ------------------------------------------------------------------
    def check_partition(
        self,
        p: Iterable[str],
        q: Iterable[str],
        z: Iterable[str],
    ) -> Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]:
        """Validate that ``(P; Q; Z)`` partitions the vocabulary.

        Returns the three blocks as frozensets.  Raises
        :class:`~repro.errors.PartitionError` otherwise.
        """
        p, q, z = frozenset(p), frozenset(q), frozenset(z)
        if p & q or p & z or q & z:
            raise PartitionError("partition blocks overlap")
        union = p | q | z
        if union != self._vocabulary:
            extra = union - self._vocabulary
            missing = self._vocabulary - union
            detail = []
            if extra:
                detail.append("atoms outside vocabulary: " + ", ".join(sorted(extra)))
            if missing:
                detail.append("uncovered atoms: " + ", ".join(sorted(missing)))
            raise PartitionError("; ".join(detail) or "invalid partition")
        return p, q, z

    # ------------------------------------------------------------------
    # Statistics (for workload reporting)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Simple structural statistics used by the benchmark reports."""
        clauses = self._clauses
        return {
            "clauses": len(clauses),
            "atoms": len(self._vocabulary),
            "facts": sum(1 for c in clauses if c.is_fact),
            "integrity": sum(1 for c in clauses if c.is_integrity),
            "disjunctive": sum(1 for c in clauses if c.is_disjunctive),
            "with_negation": sum(1 for c in clauses if c.body_neg),
            "max_head": max((len(c.head) for c in clauses), default=0),
            "max_body": max(
                (len(c.body_pos) + len(c.body_neg) for c in clauses), default=0
            ),
        }


def database(
    *clauses: Clause, vocabulary: Optional[Iterable[str]] = None
) -> DisjunctiveDatabase:
    """Convenience variadic constructor: ``database(c1, c2, ...)``."""
    return DisjunctiveDatabase(clauses, vocabulary)
