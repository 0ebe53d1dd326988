"""CWA — Reiter's Closed World Assumption [22].

The paper opens Section 3.1 with it: ``CWA(DB)`` adds ``¬x`` for every
atom ``x`` with ``M(DB) ⊭ x`` (not classically entailed).  On disjunctive
information this closure is typically *inconsistent* — from ``a | b``
neither atom is entailed, both get negated, and nothing satisfies all
three — which is exactly why Minker introduced the GCWA.

The paper also remarks that deciding whether ``CWA(DB)`` is nonempty
(consistent) is coNP-hard and in ``P^{NP}[O(log n)]``, but not in
``coDᵖ`` unless the polynomial hierarchy collapses.  Both directions are
made executable here:

* :func:`cwa_consistent_linear` — the direct ``|V| + 1`` NP-call
  procedure;
* :func:`cwa_consistent_theta` — the ``O(log |V|)``-NP-call binary-search
  machine (the one-level-down analogue of the Θ algorithm the paper uses
  for GCWA/CCWA formula inference, and the same style as [7]): binary
  search for ``k* = |{x : DB ⊬ x}|`` using the k-fold-copy query "are
  there ``k`` distinct atoms, each with a countermodel?", then one final
  query for a model of DB falsifying all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, List

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.transform import rename_atoms
from ..sat.enumerate import iter_models
from ..sat.incremental import pooled_scope
from .base import Semantics, register
from .gcwa import augmented_database, closure_model


def cwa_free_atoms(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """``{x : M(DB) ⊭ x}`` — the atoms Reiter's closure negates
    (one NP-oracle call per atom, all against one warm solver)."""
    free = set()
    with pooled_scope(db, context=("db",)) as sat:
        for atom in sorted(db.vocabulary):
            if sat.solve([Literal.neg(atom)]):
                free.add(atom)
        # Inconsistent DB: entails everything, so nothing is free.
        if not free and not sat.solve():
            return frozenset()
    return frozenset(free)


def cwa_closure(db: DisjunctiveDatabase) -> DisjunctiveDatabase:
    """``CWA(DB) = DB ∪ {¬x : x free}`` as a database."""
    return augmented_database(db, cwa_free_atoms(db))


def cwa_consistent_linear(db: DisjunctiveDatabase) -> "tuple[bool, int]":
    """Consistency of the closure with ``|V| + 1`` NP calls.

    Returns ``(consistent, np_calls)``.
    """
    calls = 0
    free: List[str] = []
    with pooled_scope(db, context=("db",)) as sat:
        for atom in sorted(db.vocabulary):
            calls += 1
            if sat.solve([Literal.neg(atom)]):
                free.append(atom)
        calls += 1
        consistent = sat.solve([Literal.neg(a) for a in free])
    return consistent, calls


@dataclass
class CwaThetaResult:
    """Outcome of the O(log n)-NP-call consistency machine."""

    consistent: bool
    free_count: int
    np_calls: int
    call_bound: int


def _copy(atom: str, index: int) -> str:
    return f"{atom}__w{index}"


def cwa_consistent_theta(db: DisjunctiveDatabase) -> CwaThetaResult:
    """Consistency of ``CWA(DB)`` with ``O(log |V|)`` NP-oracle calls.

    Query ``Q(k)``: one SAT instance over ``k`` disjoint renamed copies
    of DB plus selector variables asking for ``k`` distinct atoms, each
    false in its own copy's model — true iff at least ``k`` atoms are
    non-entailed.  Binary search pins ``k* = |free|``; the final query
    adds one more copy that must falsify all selected atoms
    simultaneously, i.e. a model of the closure.
    """
    atoms = sorted(db.vocabulary)
    n = len(atoms)
    calls = 0

    def install(k: int, with_closure_copy: bool):
        def setup(solver) -> None:
            for i in range(1, k + 1):
                solver.add_database(
                    rename_atoms(db, lambda a, i=i: _copy(a, i))
                )
            selectors = {
                (i, a): Literal.pos(f"__sel_{i}_{a}")
                for i in range(1, k + 1)
                for a in atoms
            }
            for i in range(1, k + 1):
                solver.add_clause([selectors[(i, a)] for a in atoms])
                for a in atoms:
                    # chosen atom is false in copy i
                    solver.add_clause(
                        [-selectors[(i, a)], Literal.neg(_copy(a, i))]
                    )
            for a in atoms:  # all-different
                for i in range(1, k + 1):
                    for j in range(i + 1, k + 1):
                        solver.add_clause(
                            [-selectors[(i, a)], -selectors[(j, a)]]
                        )
            if with_closure_copy:
                solver.add_database(rename_atoms(db, lambda a: _copy(a, 0)))
                for a in atoms:
                    # If a is selected anywhere, it must be false in
                    # copy 0.
                    for i in range(1, k + 1):
                        solver.add_clause(
                            [-selectors[(i, a)], Literal.neg(_copy(a, 0))]
                        )
                    # Closure also negates *unselected* atoms?  No:
                    # copy 0 must satisfy ¬x exactly for the free atoms
                    # = selected ones (|S| = k* forces S = free set),
                    # and atoms outside stay unconstrained — they are
                    # entailed, hence true in every model anyway.

        return setup

    def query(k: int, with_closure_copy: bool) -> bool:
        nonlocal calls
        calls += 1
        # The whole k-copy construction is the *permanent* theory of a
        # pooled solver keyed on (db, k, variant): the binary search and
        # repeated theta runs on the same database revisit the same keys.
        with pooled_scope(
            context=("cwa-theta", db, k, with_closure_copy),
            setup=install(k, with_closure_copy),
        ) as sat:
            return sat.solve()

    low, high = 0, n
    while low < high:
        mid = (low + high + 1) // 2
        if query(mid, with_closure_copy=False):
            low = mid
        else:
            high = mid - 1
    k_star = low

    if k_star == 0:
        # Nothing is negated; closure = DB, consistent iff DB is.
        calls += 1
        with pooled_scope(db, context=("db",)) as sat:
            consistent = sat.solve()
    else:
        consistent = query(k_star, with_closure_copy=True)
    bound = (math.ceil(math.log2(n + 1)) if n else 0) + 1
    return CwaThetaResult(consistent, k_star, calls, bound)


@register
class Cwa(Semantics):  # lint: ok RPR005 -- baseline outside Tables 1/2
    """Reiter's CWA as a semantics (beyond the paper's tables; Section
    3.1 background).  The selected models are the models of the closure —
    at most one for consistent closures of nondisjunctive databases, and
    typically none for genuinely disjunctive ones."""

    name = "cwa"
    aliases = ("reiter", "closed-world")
    description = "Reiter's Closed World Assumption"

    def model_set(self, db: DisjunctiveDatabase):
        self.validate(db)
        if self.engine == "brute":
            from ..models.enumeration import all_models

            entailed = {
                x
                for x in db.vocabulary
                if all(x in m for m in all_models(db))
            }
            if not all_models(db):
                entailed = set(db.vocabulary)
            free = db.vocabulary - entailed
            return frozenset(
                m for m in all_models(db) if not (m & free)
            )
        closure = cwa_closure(db)
        return frozenset(iter_models(closure, project=db.vocabulary))

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        if self.engine == "brute":
            return super().selected_model(db, condition)
        return closure_model(db, cwa_free_atoms(db), condition)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if self.engine == "brute":
            return super().has_model(db)
        consistent, _calls = cwa_consistent_linear(db)
        return consistent
