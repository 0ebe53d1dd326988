"""Minimal-model machinery.

Everything the paper's semantics need about minimal models, built on the
SAT oracle:

* ``MM(DB)`` — subset-minimal models (EGCWA, GCWA, DSM, ...);
* ``MM(DB; P; Z)`` — minimal models with minimized atoms ``P``, fixed
  atoms ``Q`` and floating atoms ``Z`` (CCWA, ECWA/CIRC):
  ``N ≤_{P;Z} M`` iff ``N∩Q = M∩Q`` and ``N∩P ⊆ M∩P``;
* prioritized (lexicographic) minimal models for ``P1 > P2 > ... > Pr; Z``
  (ICWA / prioritized circumscription).

The central Σ₂ᵖ *primitive* is :meth:`MinimalModelSolver.find_minimal_satisfying`
— "is there a minimal model satisfying a side condition G?" — realized as
candidate generation plus an NP (SAT) minimality check, exactly the
guess-and-check structure of the paper's upper-bound proofs.

All three solver classes run on *one* pooled
:class:`~repro.sat.incremental.IncrementalSatSolver` per
``(database, extra-theory)`` context: the database is translated once,
and every witness query, shrink step, blocking-clause enumeration and
candidate/check alternation happens in a selector-guarded
:class:`~repro.sat.incremental.Scope` on that solver, so learned clauses
accumulate across the whole query — and, via the pool, across *queries*.

``MM(DB)`` and ``MM(DB; P; Z)`` enumeration additionally decompose along
connected components (see :mod:`repro.sat.decompose`): the minimal models
of a multi-component database are the products of the parts', so the
enumerators recurse per part and combine, turning ``2^|V|``-shaped work
into a sum of exponentially smaller pieces.  Lexicographic minimality
does *not* factor when priority levels span components, so the
prioritized solver never decomposes.

Note on ``(P;Z)``-minimality: whether ``M`` is ``≤_{P;Z}``-minimal depends
only on ``M ∩ (P ∪ Q)``, so checks and blocking work on that projection.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SolverError
from ..kernel import atom_table_for, subsets_in_table_order
from ..logic.atoms import Literal
from ..obs.accounting import counts_as_sigma2_dispatch
from ..runtime.budget import check_deadline
from ..logic.cnf import Cnf
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from .decompose import decompose, restrict_partition
from .incremental import (
    SOLVER_POOL,
    IncrementalSatSolver,
    Scope,
    acquire_solver,
    scoped_sweep,
)


class _PooledSolverMixin:
    """Shared acquisition/release plumbing for the three solver classes.

    The underlying incremental solver is checked out of the process pool
    for this object's lifetime and returned when :meth:`close` runs (or
    the object is collected — a ``weakref.finalize`` guarantees release).
    All three classes use the same pool context for a bare database
    (``("db",)``), so a warm solver serves MM checks, PZ checks,
    prioritized checks and enumeration scopes alike.
    """

    def _attach_solver(
        self,
        db: Optional[DisjunctiveDatabase],
        extra_cnf: Optional[Cnf],
        context: Tuple,
        setup=None,
    ) -> None:
        self._pool_key, self._inc = acquire_solver(
            db=db, extra_cnf=extra_cnf, context=context, setup=setup
        )
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


class MinimalModelSolver(_PooledSolverMixin):
    """Minimal-model queries against a fixed database (plus optional extra
    CNF constraints that *count as part of the theory* for minimality).

    Args:
        db: the database.
        extra_cnf: additional clauses conjoined to the theory.
        universe: the atom set over which subset-minimality is taken;
            defaults to the database vocabulary.
    """

    def __init__(
        self,
        db: DisjunctiveDatabase,
        extra_cnf: Optional[Cnf] = None,
        universe: Optional[Iterable[str]] = None,
    ):
        self.db = db
        self.universe: Tuple[str, ...] = tuple(
            sorted(universe if universe is not None else db.vocabulary)
        )
        self._default_universe = frozenset(self.universe) == db.vocabulary
        self._extra_cnf = list(extra_cnf) if extra_cnf else []
        if self._default_universe:
            context: Tuple = ("db",)
            setup = None
        else:
            universe_atoms = self.universe
            context = ("db-universe", universe_atoms)
            setup = lambda solver: solver.intern(universe_atoms)
        self._attach_solver(db, self._extra_cnf, context, setup=setup)

    # ------------------------------------------------------------------
    # Low-level: witness queries in scopes on the persistent solver
    # ------------------------------------------------------------------
    def witness_below(
        self, model: Iterable[str], extra_false: Iterable[str] = ()
    ) -> Optional[Interpretation]:
        """A model ``N ⊊ M`` of the theory (over the universe), or ``None``.

        ``extra_false`` atoms are additionally forced false (used by the
        shrink loop to keep earlier exclusions).
        """
        true_atoms = frozenset(model) & frozenset(self.universe)
        assumptions: List[Literal] = [
            Literal.neg(a) for a in self.universe if a not in true_atoms
        ]
        assumptions += [Literal.neg(a) for a in extra_false]
        if not true_atoms:
            return None  # nothing below the empty model
        with self._inc.scope() as scope:
            scope.add_clause([Literal.neg(a) for a in sorted(true_atoms)])
            if scope.solve(assumptions):
                return scope.model(restrict_to=self.universe)
            return None

    def is_minimal(self, model: Iterable[str]) -> bool:
        """Whether ``model`` is a subset-minimal model of the theory.

        One SAT (NP-oracle) call.  ``model`` must be a model of the
        theory; minimality of non-models is not meaningful.
        """
        return self.witness_below(model) is None

    def shrink(self, model: Iterable[str]) -> Interpretation:
        """Drive a model down to a subset-minimal one (the standard
        shrink loop: repeatedly find a strictly smaller model)."""
        current = Interpretation(frozenset(model) & frozenset(self.universe))
        while True:
            below = self.witness_below(current)
            if below is None:
                return current
            current = below

    # ------------------------------------------------------------------
    # Finding / enumerating minimal models
    # ------------------------------------------------------------------
    def _decomposition(self) -> Optional[Tuple[DisjunctiveDatabase, ...]]:
        """The component split, when minimality factors through it: extra
        clauses could couple components and a custom universe changes the
        order, so decomposition applies only to the plain case."""
        if self._extra_cnf or not self._default_universe:
            return None
        return decompose(self.db)

    def find_minimal(self) -> Optional[Interpretation]:
        """Some minimal model of the theory, or ``None`` if inconsistent."""
        parts = self._decomposition()
        if parts is not None:
            union: frozenset = frozenset()
            for part in parts:
                if not part.clauses:
                    continue  # MM = {∅}
                with MinimalModelSolver(part) as sub:
                    found = sub.find_minimal()
                if found is None:
                    return None
                union |= found
            return Interpretation(union)
        if not self._inc.solve():
            return None
        return self.shrink(self._inc.model(restrict_to=self.universe))

    def iter_minimal_models(
        self, max_models: Optional[int] = None
    ) -> Iterator[Interpretation]:
        """Enumerate all subset-minimal models.

        Multi-component databases are enumerated per component and
        combined by product.  Connected ones use the superset-blocking
        strategy: after reporting a minimal model ``M``, the clause
        ``∨_{x∈M} ¬x`` (falsified exactly by the supersets of ``M``) is
        added.  Distinct minimal models are incomparable, so none is
        lost, and any model of the blocked theory shrinks to a minimal
        model of the *original* theory.
        """
        parts = self._decomposition()
        if parts is not None:
            yield from self._iter_product(parts, max_models)
            return
        produced = 0
        with self._inc.scope() as blocker:
            while max_models is None or produced < max_models:
                check_deadline()
                if not blocker.solve():
                    return
                candidate = blocker.model(restrict_to=self.universe)
                minimal = self.shrink(candidate)
                yield minimal
                produced += 1
                if not minimal:
                    return  # the empty model is the unique minimal model
                blocker.add_clause(
                    [Literal.neg(a) for a in sorted(minimal)]
                )

    def _iter_product(
        self,
        parts: Tuple[DisjunctiveDatabase, ...],
        max_models: Optional[int],
    ) -> Iterator[Interpretation]:
        """MM as the product of the components' MM sets."""
        from .decompose import product_interpretations

        part_models: List[List[Interpretation]] = []
        for part in parts:
            check_deadline()
            if not part.clauses:
                continue  # free atoms: MM = {∅}, neutral for the product
            with MinimalModelSolver(part) as sub:
                models = list(sub.iter_minimal_models())
            if not models:
                return  # an inconsistent component: MM(DB) = ∅
            part_models.append(models)
        produced = 0
        for combined in product_interpretations(part_models):
            yield combined
            produced += 1
            if max_models is not None and produced >= max_models:
                return

    # ------------------------------------------------------------------
    # The Σ₂ᵖ primitive: ∃ minimal model satisfying a side condition
    # ------------------------------------------------------------------
    @counts_as_sigma2_dispatch
    def find_minimal_satisfying(
        self, condition: Formula, max_candidates: Optional[int] = None
    ) -> Optional[Interpretation]:
        """A subset-minimal model of the theory that satisfies
        ``condition``, or ``None``.

        ``condition`` may mention atoms outside the universe; they are
        treated as existentially quantified helpers (they do not take part
        in minimization).

        Algorithm: search models of ``theory ∧ condition`` in one scope;
        greedily shrink *within* ``theory ∧ condition`` (child scopes) so
        candidates are few; test each candidate for minimality w.r.t. the
        *theory alone* (NP oracle, independent scopes); block the
        universe-projection of failed candidates.  The condition does not
        decompose along components, so this never decomposes.
        """
        with self._inc.scope() as searcher:
            searcher.add_formula(condition)
            tried = 0
            while max_candidates is None or tried < max_candidates:
                check_deadline()
                if not searcher.solve():
                    return None
                candidate = searcher.model(restrict_to=self.universe)
                # Shrink within theory ∧ condition to reduce candidates.
                candidate = self._shrink_within(searcher, candidate)
                tried += 1
                if self.is_minimal(candidate):
                    return candidate
                block = [Literal.neg(a) for a in sorted(candidate)]
                block += [
                    Literal.pos(a)
                    for a in self.universe
                    if a not in candidate
                ]
                searcher.add_clause(block)
        raise SolverError(
            f"candidate budget {max_candidates} exhausted in "
            "find_minimal_satisfying"
        )

    def _shrink_within(
        self,
        searcher: Scope,
        model: Interpretation,
        extra_assumptions: Tuple[Literal, ...] = (),
    ) -> Interpretation:
        """Shrink ``model`` to a subset-minimal model of the constraints
        enforced by ``searcher`` (theory + condition + blocks), via child
        scopes carrying the strictness clause.  ``extra_assumptions``
        are held through every shrink step (the batched sweep passes the
        candidate literal here, where the per-query path encodes it as a
        scope formula)."""
        current = model
        while True:
            check_deadline()
            if not current:
                return current
            with searcher.scope() as step:
                step.add_clause(
                    [Literal.neg(a) for a in sorted(current)]
                )
                assumptions = list(extra_assumptions)
                assumptions += [
                    Literal.neg(a)
                    for a in self.universe
                    if a not in current
                ]
                if not step.solve(assumptions):
                    return current
                current = step.model(restrict_to=self.universe)

    # ------------------------------------------------------------------
    # Batched oracle sweep: ff(DB) in one scope
    # ------------------------------------------------------------------
    @counts_as_sigma2_dispatch
    def _sweep_witness(
        self, searcher: Scope, assumption: Literal
    ) -> Optional[Interpretation]:
        """One candidate literal of a batched sweep: a minimal model (of
        the theory alone) satisfying ``assumption``, or ``None``.

        Identical guess-shrink-check structure to
        :meth:`find_minimal_satisfying` — and decorated the same way, so
        the Σ₂ᵖ dispatch accounting is one per candidate literal either
        way — but the condition travels as a solver *assumption* instead
        of a per-query scope formula, so every literal of the sweep runs
        in the same scope.  Failed candidates pin a complete universe
        assignment whose non-minimality is condition-independent, so the
        blocking clauses (and the solver's learned clauses) are shared
        across the whole sweep; aggregate NP-call totals drop well below
        the per-query path's (individual databases may differ by a few
        calls either way, since the two paths can surface different
        candidate models to shrink).
        """
        while True:
            check_deadline()
            if not searcher.solve([assumption]):
                return None
            candidate = searcher.model(restrict_to=self.universe)
            candidate = self._shrink_within(
                searcher, candidate, extra_assumptions=(assumption,)
            )
            if self.is_minimal(candidate):
                return candidate
            block = [Literal.neg(a) for a in sorted(candidate)]
            block += [
                Literal.pos(a)
                for a in self.universe
                if a not in candidate
            ]
            searcher.add_clause(block)

    def free_for_negation_sweep(self) -> frozenset:
        """``ff(DB)`` — the atoms true in no minimal model — as **one**
        batched incremental sweep.

        The per-atom closure used to open |V| independent
        ``find_minimal_satisfying`` scopes; this asks every vocabulary
        atom in a single scope on the persistent solver (see
        :func:`repro.sat.incremental.scoped_sweep`), reusing learned
        clauses and failed-candidate blocks across atoms.  Counted as
        the same |V| Σ₂ᵖ dispatches as the per-atom loop, so certifier
        envelopes are unchanged.
        """
        results = scoped_sweep(
            self._inc,
            list(self.universe),
            lambda searcher, atom: self._sweep_witness(
                searcher, Literal.pos(atom)
            ),
        )
        return frozenset(
            atom for atom, witness in results.items() if witness is None
        )

    def entails(self, formula: Formula) -> bool:
        """Minimal-model entailment ``MM(theory) |= formula``.

        This is the Π₂ᵖ problem at the heart of GCWA/EGCWA/ECWA inference:
        true iff *no* minimal model satisfies ``¬formula``.
        """
        from ..logic.formula import Not

        return self.find_minimal_satisfying(Not(formula)) is None


# ----------------------------------------------------------------------
# (P; Z)-minimality  (CCWA, ECWA / circumscription)
# ----------------------------------------------------------------------
class PZMinimalModelSolver(_PooledSolverMixin):
    """Queries about ``MM(DB; P; Z)``.

    The partition is ``(P; Q; Z)`` with ``Q`` implied as the rest of the
    vocabulary: ``P`` minimized, ``Q`` fixed, ``Z`` floating.
    """

    def __init__(
        self,
        db: DisjunctiveDatabase,
        p: Iterable[str],
        z: Iterable[str],
    ):
        self.db = db
        self.p = frozenset(p)
        self.z = frozenset(z)
        self.q = frozenset(db.vocabulary) - self.p - self.z
        db.check_partition(self.p, self.q, self.z)
        self._attach_solver(db, None, ("db",))

    def witness_below(self, model: Iterable[str]) -> Optional[Interpretation]:
        """A model ``N <_{P;Z} M``, or ``None``.  Depends only on
        ``M ∩ (P ∪ Q)``."""
        true_atoms = frozenset(model)
        assumptions: List[Literal] = []
        # Fix Q to agree with M.
        for atom in sorted(self.q):
            if atom in true_atoms:
                assumptions.append(Literal.pos(atom))
            else:
                assumptions.append(Literal.neg(atom))
        # P must be a subset of M ∩ P ...
        p_true = sorted(self.p & true_atoms)
        for atom in sorted(self.p - true_atoms):
            assumptions.append(Literal.neg(atom))
        # ... and a strict one.
        if not p_true:
            return None
        with self._inc.scope() as scope:
            scope.add_clause([Literal.neg(a) for a in p_true])
            if scope.solve(assumptions):
                return scope.model(restrict_to=self.db.vocabulary)
            return None

    def is_minimal(self, model: Iterable[str]) -> bool:
        """Whether ``model ∈ MM(DB; P; Z)`` (one SAT call)."""
        return self.witness_below(model) is None

    def shrink(self, model: Iterable[str]) -> Interpretation:
        """Descend ``≤_{P;Z}`` from ``model`` to a ``(P;Z)``-minimal model."""
        current = Interpretation(model)
        while True:
            below = self.witness_below(current)
            if below is None:
                return current
            current = below

    @counts_as_sigma2_dispatch
    def find_minimal_satisfying(
        self, condition: Formula, max_candidates: Optional[int] = None
    ) -> Optional[Interpretation]:
        """A ``(P;Z)``-minimal model of DB satisfying ``condition``, or
        ``None``.  Candidate generation + NP minimality check; failed
        candidates are blocked on their ``P ∪ Q`` projection (minimality
        depends only on that projection, but the condition does not — so a
        failed candidate's projection can be blocked only for minimality
        reasons, which is exactly when we block)."""
        with self._inc.scope() as searcher:
            searcher.add_formula(condition)
            pq = sorted(self.p | self.q)
            tried = 0
            while max_candidates is None or tried < max_candidates:
                check_deadline()
                if not searcher.solve():
                    return None
                candidate = searcher.model(restrict_to=self.db.vocabulary)
                tried += 1
                if self.is_minimal(candidate):
                    return candidate
                block = [
                    Literal.neg(a) if a in candidate else Literal.pos(a)
                    for a in pq
                ]
                searcher.add_clause(block)
        raise SolverError(
            f"candidate budget {max_candidates} exhausted in "
            "PZ find_minimal_satisfying"
        )

    def entails(self, formula: Formula) -> bool:
        """``MM(DB; P; Z) |= formula`` (Π₂ᵖ)."""
        from ..logic.formula import Not

        return self.find_minimal_satisfying(Not(formula)) is None

    # ------------------------------------------------------------------
    # Batched oracle sweep over candidate P-atoms
    # ------------------------------------------------------------------
    @counts_as_sigma2_dispatch
    def _sweep_witness(
        self, searcher: Scope, assumption: Literal
    ) -> Optional[Interpretation]:
        """One candidate literal of a batched sweep: a ``(P;Z)``-minimal
        model satisfying ``assumption``, or ``None``.

        Same candidate loop and ``P ∪ Q`` projection blocking as
        :meth:`find_minimal_satisfying` (one Σ₂ᵖ dispatch per literal),
        with the condition as an assumption so the whole sweep shares one
        scope.  A blocked projection is non-minimal independently of the
        condition, so sharing the blocks across literals is sound.
        """
        pq = sorted(self.p | self.q)
        while True:
            check_deadline()
            if not searcher.solve([assumption]):
                return None
            candidate = searcher.model(restrict_to=self.db.vocabulary)
            if self.is_minimal(candidate):
                return candidate
            searcher.add_clause(
                [
                    Literal.neg(a) if a in candidate else Literal.pos(a)
                    for a in pq
                ]
            )

    def free_p_atoms_sweep(self) -> frozenset:
        """The ``P``-atoms true in no ``(P;Z)``-minimal model, as one
        batched incremental sweep (the CCWA closure's per-atom loop,
        collapsed into a single scope; same |P| Σ₂ᵖ dispatch count)."""
        results = scoped_sweep(
            self._inc,
            sorted(self.p),
            lambda searcher, atom: self._sweep_witness(
                searcher, Literal.pos(atom)
            ),
        )
        return frozenset(
            atom for atom, witness in results.items() if witness is None
        )

    def iter_minimal_models(
        self, max_models: Optional[int] = None
    ) -> Iterator[Interpretation]:
        """Enumerate ``MM(DB; P; Z)``.

        Multi-component databases decompose: the ``≤_{P;Z}`` order
        compares ``P`` and fixes ``Q`` pointwise, so ``MM(DB; P; Z)`` is
        the product of the components' ``MM(DBᵢ; Pᵢ; Zᵢ)``.

        Connected ones: distinct minimal models may share their ``P ∪ Q``
        projection only by differing on ``Z``; all such ``Z``-variants are
        minimal together.  We enumerate models, check minimality of each
        new ``P ∪ Q`` projection once, and emit every model of accepted
        projections.
        """
        parts = decompose(self.db)
        if parts is not None:
            yield from self._iter_product(parts, max_models)
            return
        with self._inc.scope() as searcher:
            pq = sorted(self.p | self.q)
            produced = 0
            while True:
                check_deadline()
                if not searcher.solve():
                    return
                candidate = searcher.model(restrict_to=self.db.vocabulary)
                projection = frozenset(candidate) & frozenset(pq)
                if self.is_minimal(candidate):
                    # Emit all Z-extensions of this projection that are
                    # models (an independent scope: theory alone).
                    base = [
                        Literal.pos(a) if a in projection else Literal.neg(a)
                        for a in pq
                    ]
                    with self._inc.scope() as extension:
                        while True:
                            check_deadline()
                            if not extension.solve(base):
                                break
                            model = extension.model(
                                restrict_to=self.db.vocabulary
                            )
                            yield model
                            produced += 1
                            if (
                                max_models is not None
                                and produced >= max_models
                            ):
                                return
                            extension.add_clause(
                                [
                                    Literal.neg(a)
                                    if a in model
                                    else Literal.pos(a)
                                    for a in sorted(self.db.vocabulary)
                                ]
                            )
                searcher.add_clause(
                    [
                        Literal.neg(a) if a in projection else Literal.pos(a)
                        for a in pq
                    ]
                )

    def _iter_product(
        self,
        parts: Tuple[DisjunctiveDatabase, ...],
        max_models: Optional[int],
    ) -> Iterator[Interpretation]:
        from .decompose import product_interpretations

        part_models: List[List[Interpretation]] = []
        for part in parts:
            check_deadline()
            p_i, z_i = restrict_partition(part.vocabulary, self.p, self.z)
            if not part.clauses:
                # Free atoms: P-atoms are minimized to false; Q-atoms take
                # both values (each valuation is minimal for its own
                # Q-slice) and Z-atoms float, so every Q∪Z subset appears.
                # Enumerated through the parent database's shared
                # AtomTable so the product order is deterministic and
                # identical across the kernel and pure representations.
                models = list(
                    subsets_in_table_order(
                        atom_table_for(self.db), part.vocabulary - p_i
                    )
                )
            else:
                with PZMinimalModelSolver(part, p_i, z_i) as sub:
                    models = list(sub.iter_minimal_models())
            if not models:
                return
            part_models.append(models)
        produced = 0
        for combined in product_interpretations(part_models):
            yield combined
            produced += 1
            if max_models is not None and produced >= max_models:
                return


# ----------------------------------------------------------------------
# Prioritized (lexicographic) minimality  (ICWA / prioritized CIRC)
# ----------------------------------------------------------------------
class PrioritizedMinimalModelSolver(_PooledSolverMixin):
    """Queries about lexicographically minimal models for priority levels
    ``P1 > P2 > ... > Pr`` with floating atoms ``Z`` (and ``Q`` the fixed
    remainder of the vocabulary).

    ``N <_{P1>..>Pr;Z} M`` iff ``N∩Q = M∩Q`` and there is a level ``i``
    with ``N∩Pj = M∩Pj`` for all ``j < i`` and ``N∩Pi ⊊ M∩Pi``.
    """

    def __init__(
        self,
        db: DisjunctiveDatabase,
        levels: Sequence[Iterable[str]],
        z: Iterable[str] = (),
    ):
        self.db = db
        self.levels: List[frozenset] = [frozenset(level) for level in levels]
        self.z = frozenset(z)
        flat = frozenset(itertools.chain.from_iterable(self.levels))
        if sum(len(level) for level in self.levels) != len(flat):
            raise SolverError("priority levels overlap")
        if flat & self.z:
            raise SolverError("priority levels overlap with Z")
        self.q = frozenset(db.vocabulary) - flat - self.z
        self._attach_solver(db, None, ("db",))

    def witness_below(self, model: Iterable[str]) -> Optional[Interpretation]:
        """A model lexicographically below ``model``, or ``None``.
        Implemented as one SAT call per priority level."""
        true_atoms = frozenset(model)
        base: List[Literal] = []
        for atom in sorted(self.q):
            base.append(
                Literal.pos(atom) if atom in true_atoms else Literal.neg(atom)
            )
        for index, level in enumerate(self.levels):
            assumptions = list(base)
            # Levels above i agree with M exactly.
            for higher in self.levels[:index]:
                for atom in sorted(higher):
                    assumptions.append(
                        Literal.pos(atom)
                        if atom in true_atoms
                        else Literal.neg(atom)
                    )
            # Level i: strict subset.
            level_true = sorted(level & true_atoms)
            for atom in sorted(level - true_atoms):
                assumptions.append(Literal.neg(atom))
            if not level_true:
                continue
            with self._inc.scope() as scope:
                scope.add_clause([Literal.neg(a) for a in level_true])
                if scope.solve(assumptions):
                    return scope.model(restrict_to=self.db.vocabulary)
        return None

    def is_minimal(self, model: Iterable[str]) -> bool:
        """Whether ``model`` is lexicographically minimal."""
        return self.witness_below(model) is None

    def shrink(self, model: Iterable[str]) -> Interpretation:
        """Descend the lexicographic order to a minimal model."""
        current = Interpretation(model)
        while True:
            below = self.witness_below(current)
            if below is None:
                return current
            current = below

    @counts_as_sigma2_dispatch
    def find_minimal_satisfying(
        self, condition: Formula, max_candidates: Optional[int] = None
    ) -> Optional[Interpretation]:
        """A prioritized-minimal model satisfying ``condition``, or ``None``."""
        with self._inc.scope() as searcher:
            searcher.add_formula(condition)
            visible = sorted(self.db.vocabulary - self.z)
            tried = 0
            while max_candidates is None or tried < max_candidates:
                check_deadline()
                if not searcher.solve():
                    return None
                candidate = searcher.model(restrict_to=self.db.vocabulary)
                tried += 1
                if self.is_minimal(candidate):
                    return candidate
                block = [
                    Literal.neg(a) if a in candidate else Literal.pos(a)
                    for a in visible
                ]
                searcher.add_clause(block)
        raise SolverError(
            f"candidate budget {max_candidates} exhausted in "
            "prioritized find_minimal_satisfying"
        )

    def entails(self, formula: Formula) -> bool:
        """Truth of ``formula`` in every prioritized-minimal model."""
        from ..logic.formula import Not

        return self.find_minimal_satisfying(Not(formula)) is None


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
        return list(solver.iter_minimal_models(max_models))


def is_minimal_model(db: DisjunctiveDatabase, model: Iterable[str]) -> bool:
    """Whether ``model`` is a minimal model of ``db`` (model-ness is also
    verified)."""
    model_set = frozenset(model)
    if not db.is_model(model_set):
        return False
    with MinimalModelSolver(db) as solver:
        return solver.is_minimal(model_set)
