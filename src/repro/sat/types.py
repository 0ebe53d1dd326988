"""Internal SAT representations.

The solvers work on integer literals in the usual DIMACS convention:
variables are positive integers ``1..n`` and a literal is ``v`` or ``-v``.
:class:`VariableMap` interns atom names to variable numbers so that the
symbolic layer (:mod:`repro.logic`) and the solvers can talk to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

from ..errors import SolverError
from ..logic.atoms import Literal

IntClause = List[int]


class VariableMap:
    """A bijection between atom names and variable numbers ``1..n``."""

    __slots__ = ("_by_name", "_by_number")

    def __init__(self) -> None:
        self._by_name: Dict[str, int] = {}
        self._by_number: List[str] = []

    def __len__(self) -> int:
        return len(self._by_number)

    def __contains__(self, atom: str) -> bool:
        return atom in self._by_name

    def intern(self, atom: str) -> int:
        """The variable number for ``atom``, allocating it if new."""
        number = self._by_name.get(atom)
        if number is None:
            number = len(self._by_number) + 1
            self._by_name[atom] = number
            self._by_number.append(atom)
        return number

    def number(self, atom: str) -> int:
        """The variable number for an already-interned atom."""
        try:
            return self._by_name[atom]
        except KeyError as exc:
            raise SolverError(f"atom {atom!r} was never interned") from exc

    def atom(self, number: int) -> str:
        """The atom name for variable ``number``."""
        index = abs(number) - 1
        if not 0 <= index < len(self._by_number):
            raise SolverError(f"unknown variable number {number}")
        return self._by_number[index]

    def int_literal(self, literal: Literal) -> int:
        """Encode a symbolic literal as an integer literal."""
        number = self.intern(literal.atom)
        return number if literal.positive else -number

    def atoms(self) -> List[str]:
        """All interned atoms in allocation order."""
        return list(self._by_number)


@dataclass
class SolverStats:
    """Search statistics accumulated by a solver instance."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    solve_calls: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (for reports)."""
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "solve_calls": self.solve_calls,
        }


def check_int_clause(clause: Sequence[int]) -> IntClause:
    """Validate and normalize an integer clause (dedupe, reject 0)."""
    seen: Set[int] = set()
    result: IntClause = []
    for literal in clause:
        if literal == 0:
            raise SolverError("literal 0 is not allowed in a clause")
        if literal not in seen:
            seen.add(literal)
            result.append(literal)
    return result


def clause_is_tautology(clause: Iterable[int]) -> bool:
    """Whether the clause contains a complementary pair."""
    literals = set(clause)
    return any(-l in literals for l in literals)
