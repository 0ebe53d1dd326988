"""Two-valued and three-valued interpretations.

A (2-valued) interpretation over a vocabulary ``V`` is identified with the
set of atoms it makes true — the paper writes models as such sets, e.g.
``M = {a, c}``.  :class:`Interpretation` is a frozenset specialisation with
convenience constructors and deterministic printing.

A 3-valued (partial) interpretation, used by PDSM, maps each atom to
``0``, ``1/2``, or ``1``.  :class:`ThreeValuedInterpretation` represents it
by the pair ``(true, possible)`` with ``true ⊆ possible``: atoms in
``true`` have value 1, atoms in ``possible - true`` value 1/2, and all
others value 0.  Total interpretations are exactly those with
``true == possible``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator

from ..errors import ReproError
from .formula import FALSE3, TRUE3, UNDEF3, Formula


class Interpretation(frozenset):
    """A 2-valued interpretation as the frozenset of its true atoms."""

    __slots__ = ()

    def __new__(cls, atoms: Iterable[str] = ()) -> "Interpretation":
        return super().__new__(cls, atoms)

    def satisfies(self, formula: Formula) -> bool:
        """Classical truth of ``formula`` under this interpretation."""
        return formula.evaluate(self)

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(self)) + "}"

    def __repr__(self) -> str:
        return f"Interpretation({str(self)})"


def interp(*atoms: str) -> Interpretation:
    """Variadic convenience constructor: ``interp("a", "c")``."""
    return Interpretation(atoms)


class ThreeValuedInterpretation:
    """A 3-valued interpretation as the pair ``(true, possible)``.

    Args:
        true: atoms with truth value 1.
        possible: atoms with truth value >= 1/2 (must contain ``true``).
    """

    __slots__ = ("_true", "_possible", "_hash")

    def __init__(self, true: Iterable[str], possible: Iterable[str]):
        true_set = frozenset(true)
        possible_set = frozenset(possible)
        if not true_set <= possible_set:
            raise ReproError(
                "3-valued interpretation requires true ⊆ possible; offending "
                "atoms: " + ", ".join(sorted(true_set - possible_set))
            )
        self._true = true_set
        self._possible = possible_set
        self._hash = hash((true_set, possible_set))

    @property
    def true(self) -> FrozenSet[str]:
        """Atoms with value 1."""
        return self._true

    @property
    def possible(self) -> FrozenSet[str]:
        """Atoms with value >= 1/2."""
        return self._possible

    @property
    def undefined(self) -> FrozenSet[str]:
        """Atoms with value exactly 1/2."""
        return self._possible - self._true

    @property
    def is_total(self) -> bool:
        """Whether no atom is undefined."""
        return self._true == self._possible

    def value(self, atom: str) -> Fraction:
        """Truth degree of ``atom``: 0, 1/2 or 1."""
        if atom in self._true:
            return TRUE3
        if atom in self._possible:
            return UNDEF3
        return FALSE3

    def valuation(self) -> Dict[str, Fraction]:
        """The explicit atom -> degree mapping (atoms absent map to 0)."""
        mapping = {a: TRUE3 for a in self._true}
        mapping.update({a: UNDEF3 for a in self.undefined})
        return mapping

    def satisfies(self, formula: Formula) -> bool:
        """Whether the formula has degree 1 under this interpretation."""
        return formula.evaluate3(self.valuation()) == TRUE3

    def degree(self, formula: Formula) -> Fraction:
        """The Kleene truth degree of ``formula``."""
        return formula.evaluate3(self.valuation())

    def to_total(self) -> Interpretation:
        """The corresponding 2-valued interpretation, requiring totality."""
        if not self.is_total:
            raise ReproError(
                "interpretation is not total; undefined atoms: "
                + ", ".join(sorted(self.undefined))
            )
        return Interpretation(self._true)

    @staticmethod
    def total(atoms: Iterable[str]) -> "ThreeValuedInterpretation":
        """Embed a 2-valued interpretation (its true atoms) as 3-valued."""
        atom_set = frozenset(atoms)
        return ThreeValuedInterpretation(atom_set, atom_set)

    # ------------------------------------------------------------------
    # Truth ordering (pointwise on degrees): I <= J iff for every atom
    # value_I(x) <= value_J(x), i.e. true_I ⊆ true_J and poss_I ⊆ poss_J.
    # PDSM minimizes w.r.t. this ordering.
    # ------------------------------------------------------------------
    def leq(self, other: "ThreeValuedInterpretation") -> bool:
        """Pointwise truth ordering ``self <= other``."""
        return self._true <= other._true and self._possible <= other._possible

    def lt(self, other: "ThreeValuedInterpretation") -> bool:
        """Strict pointwise truth ordering."""
        return self.leq(other) and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreeValuedInterpretation):
            return NotImplemented
        return self._true == other._true and self._possible == other._possible

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = [f"{a}=1" for a in sorted(self._true)]
        parts += [f"{a}=1/2" for a in sorted(self.undefined)]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"ThreeValuedInterpretation({self})"


def all_interpretations(vocabulary: Iterable[str]) -> Iterator[Interpretation]:
    """Enumerate all 2^|V| interpretations over ``vocabulary`` in a
    deterministic (binary-counter) order."""
    atoms = sorted(vocabulary)
    for mask in range(1 << len(atoms)):
        yield Interpretation(
            atoms[i] for i in range(len(atoms)) if mask >> i & 1
        )


def all_three_valued(
    vocabulary: Iterable[str],
) -> Iterator[ThreeValuedInterpretation]:
    """Enumerate all 3^|V| three-valued interpretations (small ``V`` only)."""
    atoms = sorted(vocabulary)
    count = len(atoms)

    def build(index: int, true: list, possible: list):
        if index == count:
            yield ThreeValuedInterpretation(true, possible)
            return
        atom = atoms[index]
        # value 0
        yield from build(index + 1, true, possible)
        # value 1/2
        possible.append(atom)
        yield from build(index + 1, true, possible)
        # value 1
        true.append(atom)
        yield from build(index + 1, true, possible)
        true.pop()
        possible.pop()

    yield from build(0, [], [])
