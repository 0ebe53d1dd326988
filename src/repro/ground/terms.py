"""First-order (function-free) atoms for the grounder.

The paper restricts itself to propositional databases but frames them as
*grounded* deductive databases ("we limit our analysis to propositional
(i.e. grounded) databases").  This subpackage supplies the grounding
step: function-free rules with variables over a finite constant domain
are instantiated into the propositional :class:`~repro.logic.clause.Clause`
form the rest of the library works on.

Terms are constants (lowercase) or variables (uppercase), following
Datalog convention: ``move(X, Y)`` has variables ``X, Y``;
``move(a, b)`` is ground.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple

from ..errors import ParseError

_CONSTANT_RE = re.compile(r"[a-z0-9_][a-zA-Z0-9_]*")
_VARIABLE_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*")
_PREDICATE_RE = re.compile(r"[a-z_][a-zA-Z0-9_]*")


def is_variable(term: str) -> bool:
    """Whether ``term`` is a variable (uppercase initial)."""
    return bool(term) and term[0].isupper()


def is_constant(term: str) -> bool:
    """Whether ``term`` is a constant (lowercase initial or digit)."""
    return bool(term) and not term[0].isupper()


@dataclass(frozen=True)
class PredicateAtom:
    """A predicate applied to terms: ``move(X, b)``.

    Attributes:
        predicate: the predicate symbol.
        terms: constants and variables, in order (may be empty for a
            propositional atom).
    """

    predicate: str
    terms: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _PREDICATE_RE.fullmatch(self.predicate):
            raise ParseError(f"invalid predicate name {self.predicate!r}")
        for term in self.terms:
            if not (_CONSTANT_RE.fullmatch(term)
                    or _VARIABLE_RE.fullmatch(term)):
                raise ParseError(f"invalid term {term!r}")

    @property
    def variables(self) -> FrozenSet[str]:
        """The variables occurring in the atom."""
        return frozenset(t for t in self.terms if is_variable(t))

    @property
    def is_ground(self) -> bool:
        """Whether no variables occur."""
        return not self.variables

    def substitute(self, binding: Mapping[str, str]) -> "PredicateAtom":
        """Apply a variable binding (unbound variables stay)."""
        return PredicateAtom(
            self.predicate,
            tuple(binding.get(t, t) for t in self.terms),
        )

    def ground_name(self) -> str:
        """The propositional atom name of a ground instance."""
        if not self.is_ground:
            raise ParseError(f"atom {self} is not ground")
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(self.terms)})"

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({', '.join(self.terms)})"


def parse_predicate_atom(text: str) -> PredicateAtom:
    """Parse ``pred`` or ``pred(t1, ..., tn)``."""
    text = text.strip()
    match = re.fullmatch(
        r"([a-z_][a-zA-Z0-9_]*)\s*(?:\(([^()]*)\))?", text
    )
    if match is None:
        raise ParseError(f"invalid predicate atom {text!r}")
    predicate, args = match.group(1), match.group(2)
    if args is None:
        return PredicateAtom(predicate)
    terms = tuple(t.strip() for t in args.split(",")) if args.strip() else ()
    if any(not t for t in terms):
        raise ParseError(f"empty term in {text!r}")
    return PredicateAtom(predicate, terms)
