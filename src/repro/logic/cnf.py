"""Conversion to conjunctive normal form.

Two converters are provided:

* :func:`formula_to_cnf_naive` — textbook distribution.  Equivalent (not
  just equisatisfiable) but worst-case exponential; used as ground truth in
  tests and for small formulas.
* :func:`tseitin` — linear-size Tseitin transformation introducing fresh
  definition atoms.  Equisatisfiable, and models restricted to the original
  atoms are exactly the models of the input; used for all SAT queries.

A symbolic CNF is a list of clauses, each a frozenset of
:class:`~repro.logic.atoms.Literal`.  The SAT layer interns these into
integer form.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Tuple

from .atoms import Literal
from .database import DisjunctiveDatabase
from .formula import (
    And,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
    negation_normal_form,
)

CnfClause = FrozenSet[Literal]
Cnf = List[CnfClause]

#: Prefix of Tseitin definition atoms; chosen to be un-parseable on purpose
#: would break round-trips, so we keep it a legal identifier and simply
#: reserve the prefix.
TSEITIN_PREFIX = "__ts"


def database_to_cnf(db: DisjunctiveDatabase) -> Cnf:
    """The classical clause form of a database (no fresh atoms needed —
    database clauses already *are* clauses).

    The translation is memoized process-wide (it is a pure function of
    the immutable database); the returned list is a fresh copy, so
    callers may extend it freely.
    """
    from ..engine.cache import database_cnf_for

    return list(database_cnf_for(db))


def _is_tautological(clause: "frozenset[Literal]") -> bool:
    atoms_pos = {l.atom for l in clause if l.positive}
    atoms_neg = {l.atom for l in clause if not l.positive}
    return bool(atoms_pos & atoms_neg)


def formula_to_cnf_naive(formula: Formula) -> Cnf:
    """Distribute an NNF formula into CNF (equivalent; may blow up).

    Tautological clauses are dropped; an empty list means the formula is
    valid, a list containing the empty clause means it is unsatisfiable.
    """
    nnf = negation_normal_form(formula)
    clauses = _distribute(nnf)
    return [c for c in clauses if not _is_tautological(c)]


def _distribute(formula: Formula) -> Cnf:
    if isinstance(formula, Top):
        return []
    if isinstance(formula, Bottom):
        return [frozenset()]
    if isinstance(formula, Var):
        return [frozenset((Literal.pos(formula.name),))]
    if isinstance(formula, Not):
        operand = formula.operand
        if isinstance(operand, Var):
            return [frozenset((Literal.neg(operand.name),))]
        raise ValueError("input to _distribute must be in NNF")
    if isinstance(formula, And):
        result: Cnf = []
        for op in formula.operands:
            result.extend(_distribute(op))
        return result
    if isinstance(formula, Or):
        operand_cnfs = [_distribute(op) for op in formula.operands]
        # A disjunct that is valid (empty CNF) makes the whole Or valid.
        if any(not cnf for cnf in operand_cnfs):
            return []
        result = []
        for combo in itertools.product(*operand_cnfs):
            merged: FrozenSet[Literal] = frozenset().union(*combo)
            result.append(merged)
        return result
    raise ValueError(f"formula not in NNF: {formula!r}")


class _FreshAtoms:
    """Generates fresh Tseitin atoms avoiding a given vocabulary."""

    def __init__(self, avoid: Iterable[str], prefix: str = TSEITIN_PREFIX):
        self._avoid = set(avoid)
        self._prefix = prefix
        self._counter = 0

    def fresh(self) -> str:
        while True:
            name = f"{self._prefix}{self._counter}"
            self._counter += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return name


def tseitin(
    formula: Formula, avoid: Iterable[str] = ()
) -> Tuple[Cnf, Literal, "frozenset[str]"]:
    """Tseitin-encode ``formula``.

    Returns ``(clauses, root, aux_atoms)`` where ``clauses ∧ root`` is
    equisatisfiable with the formula, ``root`` is the literal naming the
    formula, and ``aux_atoms`` are the introduced definition atoms.  The
    caller typically asserts ``root`` as a unit clause; to assert the
    *negation* of the formula assert ``-root`` instead — the definitional
    clauses are emitted in both polarities so either direction is sound.

    Args:
        formula: the formula to encode.
        avoid: extra atom names the fresh atoms must not collide with
            (e.g. the database vocabulary).
    """
    fresh = _FreshAtoms(set(formula.atoms()) | set(avoid))
    clauses: Cnf = []
    aux: set = set()

    def encode(node: Formula) -> Literal:
        if isinstance(node, Var):
            return Literal.pos(node.name)
        if isinstance(node, Top):
            atom = fresh.fresh()
            aux.add(atom)
            clauses.append(frozenset((Literal.pos(atom),)))
            return Literal.pos(atom)
        if isinstance(node, Bottom):
            atom = fresh.fresh()
            aux.add(atom)
            clauses.append(frozenset((Literal.neg(atom),)))
            return Literal.pos(atom)
        if isinstance(node, Not):
            return -encode(node.operand)
        if isinstance(node, And):
            parts = [encode(op) for op in node.operands]
            out = Literal.pos(fresh.fresh())
            aux.add(out.atom)
            # out -> each part ; all parts -> out
            for part in parts:
                clauses.append(frozenset((-out, part)))
            clauses.append(frozenset([out] + [-p for p in parts]))
            return out
        if isinstance(node, Or):
            parts = [encode(op) for op in node.operands]
            out = Literal.pos(fresh.fresh())
            aux.add(out.atom)
            # each part -> out ; out -> some part
            for part in parts:
                clauses.append(frozenset((out, -part)))
            clauses.append(frozenset([-out] + list(parts)))
            return out
        if isinstance(node, Implies):
            return encode(Or(Not(node.antecedent), node.consequent))
        if isinstance(node, Iff):
            a = encode(node.left)
            b = encode(node.right)
            out = Literal.pos(fresh.fresh())
            aux.add(out.atom)
            clauses.append(frozenset((-out, -a, b)))
            clauses.append(frozenset((-out, a, -b)))
            clauses.append(frozenset((out, a, b)))
            clauses.append(frozenset((out, -a, -b)))
            return out
        raise TypeError(f"unknown formula node: {node!r}")

    root = encode(formula)
    return clauses, root, frozenset(aux)


def cnf_atoms(cnf: Cnf) -> "frozenset[str]":
    """All atoms occurring in a symbolic CNF."""
    return frozenset(l.atom for clause in cnf for l in clause)
