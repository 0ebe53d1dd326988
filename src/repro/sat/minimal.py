"""Minimal-model machinery: one solver for every minimality order.

Every minimal-model semantics of the paper minimizes in one order, the
prioritized order ``P1 > P2 > ... > Pr; Z`` with ``Q`` the fixed rest of
the vocabulary::

    N < M  iff  N∩Q = M∩Q and, for some level i,
                N∩Pj = M∩Pj for every j < i and N∩Pi ⊊ M∩Pi

* several levels — prioritized (lexicographic) minimality (ICWA,
  prioritized circumscription);
* one level ``P`` — ``MM(DB; P; Z)``: ``P`` minimized, ``Q`` fixed,
  ``Z`` floating (CCWA, ECWA, which also answers circumscription);
* one level holding the whole vocabulary, ``Z = ∅`` (the default) —
  subset-minimality, ``MM(DB)`` (EGCWA, GCWA, DSM, ...).

:class:`MinimalModelSolver` implements that order once.  The central
Σ₂ᵖ *primitive* is :meth:`MinimalModelSolver.find_minimal_satisfying` —
"is there a minimal model satisfying a side condition G?" — realized as
the guess-and-check of the paper's upper-bound proofs: guess a model of
the theory and G, check its minimality with NP calls
(:meth:`~MinimalModelSolver.witness_below`), block a rejected guess.
Whether ``M`` is minimal depends only on ``M ∖ Z``, so a rejected
guess is blocked on that projection.  The closure sweep
(:meth:`~MinimalModelSolver.free_atoms`) blocks more per rejection: it
shrinks the model below the guess to a minimal model and blocks the
whole cone strictly above it, as enumeration does, so an atom that
occurs in many models costs a few shrinks, not one check per model.

The solver runs on *one* pooled
:class:`~repro.sat.incremental.IncrementalSatSolver` per database: the
database is translated once, and every witness query, shrink step,
enumeration block and candidate/check alternation happens in a
selector-guarded :class:`~repro.sat.incremental.Scope` on that solver,
so learned clauses accumulate across the whole query — and, via the
pool, across *queries*.

Enumeration of one-level orders decomposes along connected components
(see :mod:`repro.sat.decompose`): the minimal models of a
multi-component database are the products of the parts', turning
``2^|V|``-shaped work into a sum of exponentially smaller pieces.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import SolverError
from ..kernel import atom_table_for, subsets_in_table_order
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..obs.accounting import counts_as_sigma2_dispatch
from ..runtime.budget import check_deadline
from .decompose import decompose, product_interpretations, restrict_partition
from .incremental import SOLVER_POOL, Scope, acquire_solver, blocking_clause


def _agreeing(atoms: Iterable[str], model: frozenset) -> List[Literal]:
    """The literals fixing ``atoms`` to their values in ``model``."""
    return [Literal.pos(a) if a in model else Literal.neg(a) for a in atoms]


class MinimalModelSolver:
    """Minimal-model queries against a database, in the prioritized order
    ``levels[0] > levels[1] > ... ; z``.

    The underlying incremental solver is checked out of the process pool
    for this object's lifetime and returned when :meth:`close` runs (or
    the object is collected — a ``weakref.finalize`` guarantees release).
    Every order shares the pool context of its database, so a warm solver
    serves ⊆, ``(P;Z)`` and prioritized queries alike.

    Args:
        db: the database.
        levels: the disjoint priority levels ``P1, ..., Pr``; ``None``
            (default) is one level holding every atom outside ``z``.
            ``[p]`` is ``(P;Z)``-minimality.
        z: the floating atoms.

    Raises:
        SolverError: the levels overlap each other or ``z``.
        PartitionError: a level or ``z`` names an atom outside the
            vocabulary.
    """

    def __init__(
        self,
        db: DisjunctiveDatabase,
        levels: Optional[Sequence[Iterable[str]]] = None,
        z: Iterable[str] = (),
    ):
        self.db = db
        self.z = frozenset(z)
        if levels is None:
            levels = [db.vocabulary - self.z]
        sets = [frozenset(level) for level in levels]
        flat = frozenset(itertools.chain.from_iterable(sets))
        if sum(len(level) for level in sets) != len(flat):
            raise SolverError("priority levels overlap")
        if flat & self.z:
            raise SolverError("priority levels overlap with Z")
        q = db.vocabulary - flat - self.z
        db.check_partition(flat, q, self.z)
        self.levels = [tuple(sorted(level)) for level in sets]
        self._level_atoms = tuple(itertools.chain.from_iterable(self.levels))
        self.q = tuple(sorted(q))
        self._visible = tuple(sorted(db.vocabulary - self.z))
        self._pool_key, self._inc = acquire_solver(db=db, context=("db",))
        self._finalizer = weakref.finalize(
            self, SOLVER_POOL.release, self._pool_key, self._inc
        )

    def close(self) -> None:
        """Return the underlying solver to the pool.  The object must not
        be queried afterwards (another user may check the solver out)."""
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The order: one SAT call per level
    # ------------------------------------------------------------------
    def witness_below(
        self,
        model: Iterable[str],
        within: Optional[Scope] = None,
        assumptions: Sequence[Literal] = (),
    ) -> Optional[Interpretation]:
        """A model strictly below ``model`` in the order, or ``None``.

        One SAT call per level with a true atom, each in a child scope of
        ``within`` (default: the base solver, i.e. the theory alone).
        ``assumptions`` come first, then ``Q`` and the higher levels fixed
        to ``model``'s values, then the level's false atoms held false;
        the scope clause "some true atom of the level turns false" makes
        the step strict.  Depends only on ``model ∖ Z``.
        """
        true_atoms = frozenset(model)
        fixed = [*assumptions, *_agreeing(self.q, true_atoms)]
        parent = self._inc if within is None else within
        for level in self.levels:
            drop = [Literal.neg(a) for a in level if a in true_atoms]
            if drop:
                with parent.scope() as scope:
                    scope.add_clause(drop)
                    if scope.solve(
                        fixed
                        + [Literal.neg(a) for a in level if a not in true_atoms]
                    ):
                        return scope.model(restrict_to=self.db.vocabulary)
            fixed += _agreeing(level, true_atoms)
        return None

    def is_minimal(self, model: Iterable[str]) -> bool:
        """Whether ``model`` is minimal.  One NP call per level with a
        true atom; ``model`` must be a model of the theory."""
        return self.witness_below(model) is None

    def shrink(
        self,
        model: Iterable[str],
        within: Optional[Scope] = None,
        assumptions: Sequence[Literal] = (),
    ) -> Interpretation:
        """Descend the order from ``model`` to a minimal model of the
        theory — of ``within``'s constraints under ``assumptions`` when
        those are given."""
        current = Interpretation(frozenset(model) & self.db.vocabulary)
        while True:
            check_deadline()
            below = self.witness_below(current, within, assumptions)
            if below is None:
                return current
            current = below

    # ------------------------------------------------------------------
    # The guess-and-check loop and the Σ₂ᵖ primitive
    # ------------------------------------------------------------------
    def _candidates(
        self, searcher: Scope, assumptions: Sequence[Literal] = ()
    ) -> Iterator[Interpretation]:
        """The guesses: models of ``searcher``'s constraints under
        ``assumptions``, read on ``V``.  A guess the consumer rejects (by
        asking for the next) is blocked on ``V ∖ Z``; minimality depends
        only on that projection, so the block is sound for any condition."""
        return searcher.each_model(
            self._visible, assumptions, restrict_to=self.db.vocabulary
        )

    @counts_as_sigma2_dispatch
    def find_minimal_satisfying(
        self, condition: Formula
    ) -> Optional[Interpretation]:
        """A minimal model of the theory that satisfies ``condition``, or
        ``None``.

        ``condition`` may mention atoms outside the vocabulary; they are
        existentially quantified helpers and take no part in
        minimization.  The condition lives in one search scope; each
        candidate is checked against the theory alone.
        """
        with self._inc.scope() as searcher:
            searcher.add_formula(condition)
            for candidate in self._candidates(searcher):
                if self.is_minimal(candidate):
                    return candidate
        return None

    def entails(self, formula: Formula) -> bool:
        """``formula`` holds in every minimal model — the Π₂ᵖ problem at
        the heart of GCWA/EGCWA/ECWA/ICWA inference: no minimal model
        satisfies ``¬formula``."""
        return self.find_minimal_satisfying(Not(formula)) is None

    @counts_as_sigma2_dispatch
    def _sweep_witness(
        self, searcher: Scope, atom: str
    ) -> Optional[Interpretation]:
        """One atom of :meth:`free_atoms`: a minimal model containing
        ``atom``, or ``None`` (one Σ₂ᵖ dispatch, the atom an assumption
        so the whole sweep shares one scope).

        A refuted guess is shrunk, from the model below it, to a minimal
        model ``M``, and ``searcher`` then excludes ``M``'s strict cone:
        every model with ``M``'s ``Q`` part and a proper superset of its
        level atoms, all above ``M`` in the order.  With one level the
        guess lies in that cone; with several it may not, and is then
        blocked on ``V ∖ Z`` by itself.  ``M`` stays admissible — it may
        witness a later atom.
        """
        assumption = [Literal.pos(atom)]
        while True:
            check_deadline()
            if not searcher.solve(assumption):
                return None
            guess = searcher.model(restrict_to=self.db.vocabulary)
            below = self.witness_below(guess)
            if below is None:
                return guess
            minimal = self.shrink(below)
            cone = self._cone_clause(minimal)
            for b in self._level_atoms:
                if b not in minimal:
                    searcher.add_clause([*cone, Literal.neg(b)])
            if any(b in minimal and b not in guess for b in self._level_atoms):
                searcher.add_clause(blocking_clause(guess, self._visible))

    def free_atoms(self) -> frozenset:
        """The first-level atoms true in no minimal model — ``ff(DB)``
        for the ⊆ order, the atoms the CCWA closure negates for
        ``(P;Z)`` — as one batched sweep.

        Every atom is asked in a single scope on the persistent solver,
        as a solver *assumption* instead of a scope formula, so learned
        clauses, variable activities and the blocked cones carry over
        from atom to atom: a cone holds only models above a minimal
        model, non-minimal whatever the atom.  A refuted guess costs its
        shrink but blocks the whole cone above the minimal model it
        shrinks to, so an atom no constraint touches is settled in a few
        NP calls instead of one per model containing it.  Accounting:
        each atom is one Σ₂ᵖ dispatch, exactly as for a per-atom
        :meth:`find_minimal_satisfying` loop, so certifier envelopes over
        the sweep are the per-query ones.
        """
        with self._inc.scope() as searcher:
            return frozenset(
                atom
                for atom in self.levels[0]
                if self._sweep_witness(searcher, atom) is None
            )

    # ------------------------------------------------------------------
    # Finding and enumerating minimal models
    # ------------------------------------------------------------------
    def find_minimal(self) -> Optional[Interpretation]:
        """Some minimal model of the theory, or ``None`` if inconsistent."""
        if not self._inc.solve():
            return None
        return self.shrink(self._inc.model(restrict_to=self.db.vocabulary))

    def iter_minimal_models(self) -> Iterator[Interpretation]:
        """Enumerate the minimal models of a one-level order.

        Multi-component databases are enumerated per component and
        combined by product (the order compares ``P`` and fixes ``Q``
        pointwise).  Connected ones: shrink a model of the blocked theory
        to a minimal model ``M``, emit it (every ``Z``-extension of its
        projection when ``Z ≠ ∅``), and block the cone above it — the
        clause negating ``M``'s ``P``-atoms or changing a ``Q``-atom.
        Distinct minimal projections are incomparable, so no cone hides
        another, and any model of the blocked theory shrinks to a minimal
        model of the *original* theory with a new projection.
        """
        if len(self.levels) != 1:
            raise SolverError("enumeration needs a one-level order")
        parts = decompose(self.db)
        if parts is not None:
            yield from self._iter_product(parts)
            return
        with self._inc.scope() as blocker:
            while True:
                check_deadline()
                if not blocker.solve():
                    return
                minimal = self.shrink(
                    blocker.model(restrict_to=self.db.vocabulary)
                )
                if self.z:
                    yield from self._z_extensions(minimal)
                else:
                    yield minimal
                cone = self._cone_clause(minimal)
                if not cone:
                    return  # every model lies above the one minimal model
                blocker.add_clause(cone)

    def _cone_clause(self, minimal: Interpretation) -> List[Literal]:
        """The clause excluding the cone at ``minimal``: every model with
        its ``Q`` part that keeps all its level atoms (levels flattened
        in order)."""
        cone = [Literal.neg(a) for a in self._level_atoms if a in minimal]
        return cone + blocking_clause(minimal, self.q)

    def _z_extensions(
        self, minimal: Interpretation
    ) -> Iterator[Interpretation]:
        """Every model agreeing with ``minimal`` on ``V ∖ Z`` (all minimal
        together), enumerated in an independent scope."""
        fixed = _agreeing(self._visible, minimal)
        with self._inc.scope() as extension:
            yield from extension.each_model(sorted(self.db.vocabulary), fixed)

    def _iter_product(self, parts) -> Iterator[Interpretation]:
        """The minimal models as the product of the components'."""
        part_models: List[List[Interpretation]] = []
        for part in parts:
            check_deadline()
            p_i, z_i = restrict_partition(
                part.vocabulary, self.levels[0], self.z
            )
            if not part.clauses:
                # Free atoms: P-atoms are minimized to false; Q-atoms take
                # both values (each valuation is minimal for its own
                # Q-slice) and Z-atoms float, so every Q∪Z subset appears
                # ([∅] for the ⊆ order).  Enumerated through the parent
                # database's shared AtomTable so the product order is
                # deterministic.
                models = list(
                    subsets_in_table_order(
                        atom_table_for(self.db), part.vocabulary - p_i
                    )
                )
            else:
                with MinimalModelSolver(part, [p_i], z_i) as sub:
                    models = list(sub.iter_minimal_models())
            if not models:
                return  # an inconsistent component: no minimal model
            part_models.append(models)
        yield from product_interpretations(part_models)


# ----------------------------------------------------------------------
# Convenience functions
# ----------------------------------------------------------------------
def find_minimal_model(db: DisjunctiveDatabase) -> Optional[Interpretation]:
    """Some subset-minimal model of ``db`` or ``None`` if inconsistent."""
    with MinimalModelSolver(db) as solver:
        return solver.find_minimal()


def minimal_models(
    db: DisjunctiveDatabase,
    max_models: Optional[int] = None,
) -> List[Interpretation]:
    """All subset-minimal models ``MM(DB)`` (bounded by ``max_models``)."""
    with MinimalModelSolver(db) as solver:
        return list(itertools.islice(solver.iter_minimal_models(), max_models))


def is_minimal_model(db: DisjunctiveDatabase, model: Iterable[str]) -> bool:
    """Whether ``model`` is a minimal model of ``db`` (model-ness is also
    verified)."""
    model_set = frozenset(model)
    if not db.is_model(model_set):
        return False
    with MinimalModelSolver(db) as solver:
        return solver.is_minimal(model_set)
