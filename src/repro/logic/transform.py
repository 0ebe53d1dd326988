"""Program transformations used by the semantics.

* :func:`gl_reduct` — the Gelfond–Lifschitz reduct ``DB^M`` (Section 5.2
  of the paper): delete every clause whose negative body intersects ``M``,
  then drop the remaining negative body literals.  Used by DSM.
* :func:`three_valued_reduct` — the 3-valued reduct ``DB^I`` for PDSM:
  each ``not c`` is replaced by the truth *constant* ``1 - I(c)``.
* :func:`shift_negation_to_head` — move negative body literals into the
  head (used by the paper for ICWA: "moving each ``¬x`` in the body to the
  head" turns a DSDB into a positive DDB with the same classical models).
* :func:`split_programs` — Sakama's split programs for the possible models
  semantics: independently replace each clause head by a nonempty subset.
* :func:`rename_atoms` — uniform atom renaming.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterator, List

from .clause import Clause
from .database import DisjunctiveDatabase
from .formula import FALSE3, TRUE3
from .interpretation import ThreeValuedInterpretation


def gl_reduct(
    db: DisjunctiveDatabase, interpretation: AbstractSet[str]
) -> DisjunctiveDatabase:
    """The Gelfond–Lifschitz reduct ``DB^M`` w.r.t. a 2-valued
    interpretation ``M`` (the set of true atoms).

    The result is a positive database over the same vocabulary.
    """
    reduced: List[Clause] = []
    for clause in db.clauses:
        if clause.body_neg & interpretation:
            continue  # some `not c` is false in M: clause disappears
        reduced.append(Clause(clause.head, clause.body_pos, frozenset()))
    return DisjunctiveDatabase(reduced, db.vocabulary)


@dataclass(frozen=True)
class ValuedClause:
    """A clause of a 3-valued reduct: ``head :- body_pos`` with an extra
    constant conjunct ``bound`` in ``{0, 1/2, 1}`` coming from the replaced
    negative literals (``1`` when there were none).

    A 3-valued interpretation ``J`` satisfies it iff
    ``val_J(head) >= min(min_b J(b), bound)`` where the empty head has
    value 0 and the empty positive body value 1.
    """

    head: FrozenSet[str]
    body_pos: FrozenSet[str]
    bound: Fraction

    def body_value(self, interpretation: ThreeValuedInterpretation) -> Fraction:
        value = self.bound
        for atom in self.body_pos:
            value = min(value, interpretation.value(atom))
            if value == FALSE3:
                break
        return value

    def head_value(self, interpretation: ThreeValuedInterpretation) -> Fraction:
        value = FALSE3
        for atom in self.head:
            value = max(value, interpretation.value(atom))
            if value == TRUE3:
                break
        return value

    def satisfied_by(self, interpretation: ThreeValuedInterpretation) -> bool:
        return self.head_value(interpretation) >= self.body_value(interpretation)

    def __str__(self) -> str:
        head = " | ".join(sorted(self.head)) or "(false)"
        body = ", ".join(sorted(self.body_pos))
        if self.bound != TRUE3:
            constant = "0" if self.bound == FALSE3 else "1/2"
            body = f"{body}, {constant}" if body else constant
        return f"{head} :- {body}." if body else f"{head}."


def three_valued_reduct(
    db: DisjunctiveDatabase, interpretation: ThreeValuedInterpretation
) -> List[ValuedClause]:
    """The PDSM reduct ``DB^I``: each ``not c`` becomes the constant
    ``1 - I(c)``; the constants in one body collapse to their minimum."""
    reduct: List[ValuedClause] = []
    for clause in db.clauses:
        bound = TRUE3
        for atom in clause.body_neg:
            bound = min(bound, TRUE3 - interpretation.value(atom))
        reduct.append(ValuedClause(clause.head, clause.body_pos, bound))
    return reduct


def shift_negation_to_head(db: DisjunctiveDatabase) -> DisjunctiveDatabase:
    """Move each negative body literal to the head.

    ``a1|...|an :- b's, not c1, ..., not cm`` becomes
    ``a1|...|an|c1|...|cm :- b's``.  The classical models are unchanged
    (both denote the same propositional clause); the result is a deductive
    (negation-free) database.
    """
    shifted = [
        Clause(c.head | c.body_neg, c.body_pos, frozenset()) for c in db.clauses
    ]
    return DisjunctiveDatabase(shifted, db.vocabulary)


def split_programs(db: DisjunctiveDatabase) -> Iterator[DisjunctiveDatabase]:
    """Enumerate Sakama's split programs of ``db``.

    For every clause with a nonempty head, a nonempty subset of the head is
    chosen and the clause is replaced by one single-head rule per chosen
    atom; integrity clauses are kept as they are.  The number of splits is
    the product of ``2^|head| - 1`` over disjunctive clauses — callers must
    bound it (see :func:`split_count`).
    """
    ordered = sorted(db.clauses)
    choice_lists: List[List[FrozenSet[str]]] = []
    for clause in ordered:
        if clause.is_integrity:
            choice_lists.append([frozenset()])
        else:
            head = sorted(clause.head)
            subsets = [
                frozenset(combo)
                for size in range(1, len(head) + 1)
                for combo in itertools.combinations(head, size)
            ]
            choice_lists.append(subsets)
    for selection in itertools.product(*choice_lists):
        clauses: List[Clause] = []
        for clause, chosen in zip(ordered, selection):
            if clause.is_integrity:
                clauses.append(clause)
            else:
                for atom in chosen:
                    clauses.append(
                        Clause(frozenset((atom,)), clause.body_pos, clause.body_neg)
                    )
        yield DisjunctiveDatabase(clauses, db.vocabulary)


def split_count(db: DisjunctiveDatabase) -> int:
    """The number of split programs :func:`split_programs` would yield."""
    count = 1
    for clause in db.clauses:
        if not clause.is_integrity:
            count *= (1 << len(clause.head)) - 1
    return count


def rename_atoms(
    db: DisjunctiveDatabase, renaming: "Dict[str, str] | Callable[[str], str]"
) -> DisjunctiveDatabase:
    """Apply an injective atom renaming to every clause and the vocabulary."""
    if callable(renaming):
        rename = renaming
    else:
        mapping = dict(renaming)
        rename = lambda atom: mapping.get(atom, atom)  # noqa: E731
    clauses = [
        Clause(
            frozenset(rename(a) for a in c.head),
            frozenset(rename(a) for a in c.body_pos),
            frozenset(rename(a) for a in c.body_neg),
        )
        for c in db.clauses
    ]
    vocabulary = frozenset(rename(a) for a in db.vocabulary)
    if len(vocabulary) != len(db.vocabulary):
        raise ValueError("renaming is not injective on the vocabulary")
    return DisjunctiveDatabase(clauses, vocabulary)
