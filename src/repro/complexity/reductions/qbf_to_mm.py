"""Σ₂ᵖ/Π₂ᵖ-hardness: 2QBF validity → minimal-model reasoning.

The paper's central lower bound (behind the Π₂ᵖ-completeness of literal
inference under GCWA, EGCWA, ECWA/CIRC, ICWA, PERF, DSM and PDSM — its
Theorem 3.1 family, "Φ is valid iff MM(T) |= ¬w"): from a Σ₂ᵖ-complete
``∃X ∀Y φ`` (φ in DNF) build a *positive* DDB ``T`` over
``X ∪ X' ∪ Y ∪ Y' ∪ {w}``::

    x | x'                     for each x ∈ X
    y | y'                     for each y ∈ Y
    y  :- w     y' :- w        for each y ∈ Y
    w  :- σ(D)                 for each DNF term D of φ

where ``σ`` maps the literal ``x`` to the atom ``x`` and ``¬x`` to ``x'``
(and likewise for ``y``).  Then:

    ∃X∀Y φ is valid   ⟺   some minimal model of T contains w
                      ⟺   MM(T) ⊭ ¬w.

Proof shape (verified empirically against brute force in the tests):

* For an outer assignment ``σ``, the interpretation
  ``M_σ = σ-literals ∪ {y, y' : y ∈ Y} ∪ {w}`` is always a model, and a
  *minimal* one iff ``∀Y φ(σ, ·)`` holds: a strictly smaller model must
  drop ``w`` (keeping ``w`` forces all ``y, y'`` back) and therefore
  encodes, through which of ``y/y'`` it keeps, a ``Y``-counterexample
  avoiding every term body.
* Conversely a minimal model containing ``w`` has exactly one of
  ``x/x'`` for each ``x`` (dropping a duplicate preserves modelhood), so
  it is some ``M_σ``, and its minimality again means no
  ``Y``-counterexample exists.

Consequences, all positive-DDB (Table 1) lower bounds:

* literal inference of ``¬w`` under EGCWA/GCWA/ECWA/ICWA/PERF/DSM is
  Π₂ᵖ-hard (these all answer ``MM(T) |= ¬w`` on positive databases);
* CCWA literal inference is Π₂ᵖ-hard via ``Q = Z = ∅``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ...errors import ReproError
from ...logic.clause import Clause
from ...logic.database import DisjunctiveDatabase
from ...logic.formula import And, Bottom, Formula, Not, Or, Top, Var
from ...qbf.formula import QBF2

#: Suffix for the "complement" atom of a QBF variable.
PRIME = "_f"
#: The distinguished head atom.
W = "w"


def _primed(atom: str) -> str:
    return atom + PRIME


def dnf_terms(matrix: Formula) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Decompose a DNF formula into ``(positive, negative)`` atom pairs.

    Accepts ``Or`` of terms, each an ``And`` of literals (or a single
    literal / single term).  Raises for non-DNF inputs.
    """
    def literal_of(node: Formula) -> Tuple[str, bool]:
        if isinstance(node, Var):
            return node.name, True
        if isinstance(node, Not) and isinstance(node.operand, Var):
            return node.operand.name, False
        raise ReproError(f"matrix is not in DNF: bad literal {node!r}")

    def term_of(node: Formula) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        literals: List[Tuple[str, bool]] = []
        if isinstance(node, And):
            for part in node.operands:
                literals.append(literal_of(part))
        else:
            literals.append(literal_of(node))
        positive = frozenset(a for a, sign in literals if sign)
        negative = frozenset(a for a, sign in literals if not sign)
        return positive, negative

    if isinstance(matrix, (Top, Bottom)):
        raise ReproError("constant matrices need no reduction")
    if isinstance(matrix, Or):
        return [term_of(part) for part in matrix.operands]
    return [term_of(matrix)]


@dataclass(frozen=True)
class MinimalEntailmentInstance:
    """The reduction's output: valid(qbf) ⟺ ``MM(db) ⊭ ¬w``."""

    db: DisjunctiveDatabase
    w: str

    @property
    def query_literal(self) -> str:
        """The literal whose non-inference witnesses validity."""
        return "not " + self.w


def qbf_to_minimal_entailment(qbf: QBF2) -> MinimalEntailmentInstance:
    """Reduce ``∃X ∀Y φ`` (φ in DNF) to minimal-model literal inference.

    Contract: ``qbf`` is valid  ⟺  some minimal model of the returned
    positive DDB contains ``w``  ⟺  ``MM(db) |= ¬w`` is **false**.
    """
    if not qbf.exists_first:
        raise ReproError(
            "reduction starts from the Σ₂ᵖ form ∃X∀Y; negate the input "
            "for the Π₂ᵖ form"
        )
    reserved = {W} | {_primed(a) for a in qbf.x | qbf.y}
    clash = reserved & (qbf.x | qbf.y)
    if clash:
        raise ReproError(
            "QBF variables clash with reduction atoms: "
            + ", ".join(sorted(clash))
        )
    clauses: List[Clause] = []
    for x in sorted(qbf.x):
        clauses.append(Clause.fact(x, _primed(x)))
    for y in sorted(qbf.y):
        clauses.append(Clause.fact(y, _primed(y)))
        clauses.append(Clause.rule([y], [W]))
        clauses.append(Clause.rule([_primed(y)], [W]))
    for positive, negative in dnf_terms(qbf.matrix):
        body = set(positive) | {_primed(a) for a in negative}
        clauses.append(Clause.rule([W], body))
    return MinimalEntailmentInstance(
        db=DisjunctiveDatabase(clauses), w=W
    )
