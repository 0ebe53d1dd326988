"""Fragment-specialized decision procedures.

Three machines back the planner's fast paths:

* :func:`horn_least_model` — the unit-propagation fixpoint of a Horn
  database.  A consistent Horn database has a unique minimal model (its
  least model), every closed-world semantics the planner routes here
  selects exactly that model, and the fixpoint uses **zero** SAT calls —
  the Horn cell of the fragment lattice is genuinely in P, and the
  certifier holds the planner to it.

* :class:`HeadCycleFreeSolver` — minimal-model queries on the
  :class:`~repro.sat.minimal.MinimalModelSolver` guess loop, with the
  Σ₂ᵖ primitive's NP minimality check replaced by the
  Ben-Eliyahu–Dechter *foundedness* check.  The foundedness check is a
  polynomial fixpoint, sound for every negation-free database and
  complete for head-cycle-free ones, so on the ``hcf-deductive``
  fragment minimal-model entailment runs as an NP-level machine: plain
  SAT calls only, no Σ₂ᵖ dispatch is ever counted.

* :func:`stratified_perfect_model` — the iterated per-stratum least
  model of a stratified *normal* (head width ≤ 1) database.  On that
  fragment the unique perfect model is the unique stable model
  (Apt–Blair–Walker), so PERF/ICWA/DSM all select exactly it — another
  pure-P cell, zero SAT calls, memoized like the Horn least model.

The free-for-negation closure of the foundedness machine is memoized
per database (:func:`hcf_free_atoms`), so a GCWA-style literal-closure
workload pays the |V| founded searches once, not once per query.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from ..errors import SolverError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not
from ..logic.interpretation import Interpretation
from ..sat.incremental import Scope
from ..sat.minimal import MinimalModelSolver

#: Engine-cache kind for memoized least models.
_LEAST_MODEL_KIND = "horn_least_model"


def _compute_least_model(
    db: DisjunctiveDatabase,
) -> Tuple[FrozenSet[str], bool]:
    """``(least model of the definite part, consistency)`` of a Horn
    database, by queue-based unit propagation (linear in clause size).

    Consistency: the least model of the definite clauses satisfies every
    definite clause by construction, so the database is consistent iff
    no integrity clause has its whole body in the least model.
    """
    waiting: dict = {}  # atom -> clauses whose body still needs it
    missing: dict = {}  # clause -> count of unsatisfied body atoms
    queue = []
    derived: set = set()
    for clause in db.clauses:
        if not clause.head:
            continue
        (head_atom,) = tuple(clause.head)
        missing[clause] = len(clause.body_pos)
        if not clause.body_pos:
            queue.append(head_atom)
            continue
        for atom in clause.body_pos:
            waiting.setdefault(atom, []).append((clause, head_atom))
    while queue:
        atom = queue.pop()
        if atom in derived:
            continue
        derived.add(atom)
        for clause, head_atom in waiting.get(atom, ()):
            missing[clause] -= 1
            if missing[clause] == 0 and head_atom not in derived:
                queue.append(head_atom)
    least = frozenset(derived)
    consistent = all(
        not clause.body_pos <= least
        for clause in db.clauses
        if clause.is_integrity
    )
    return least, consistent


def horn_least_model(
    db: DisjunctiveDatabase,
) -> Tuple[Interpretation, bool]:
    """``(least model, consistent)`` of a Horn database, memoized.

    Callers must have established ``db`` is Horn (the planner gates on
    the fragment profile); on non-Horn input the result is meaningless.
    """
    from ..engine.cache import ENGINE_CACHE

    least, consistent = ENGINE_CACHE.get_or_compute(
        _LEAST_MODEL_KIND, db, lambda: _compute_least_model(db)
    )
    return Interpretation(least), consistent


#: Engine-cache kind for memoized perfect models.
_PERFECT_MODEL_KIND = "stratified_perfect"

#: Engine-cache kind for the memoized founded free-for-negation closure.
_HCF_FF_KIND = "hcf_free_atoms"


def _compute_perfect_model(
    db: DisjunctiveDatabase,
) -> Tuple[FrozenSet[str], bool]:
    """``(iterated least model, consistency)`` of a stratified normal
    database.

    Strata are processed lowest first; within a stratum the definite
    part is closed under a fixpoint with negative bodies evaluated
    against the (settled) lower strata.  The database is consistent iff
    no integrity clause has its positive body inside and its negative
    body outside the resulting model.
    """
    from ..engine.cache import stratification_for

    stratification = stratification_for(db)
    if stratification is None:  # pragma: no cover - planner gates on it
        raise SolverError("stratified_perfect_model on unstratifiable db")
    derived: set = set()
    for stratum in stratification.strata:
        rules = [
            (clause, tuple(clause.head)[0])
            for clause in db.clauses
            if clause.head and tuple(clause.head)[0] in stratum
        ]
        changed = True
        while changed:
            changed = False
            for clause, head_atom in rules:
                if head_atom in derived:
                    continue
                if clause.body_pos <= derived and not (
                    clause.body_neg & derived
                ):
                    derived.add(head_atom)
                    changed = True
    model = frozenset(derived)
    consistent = all(
        not (
            clause.body_pos <= model
            and not (clause.body_neg & model)
        )
        for clause in db.clauses
        if clause.is_integrity
    )
    return model, consistent


def stratified_perfect_model(
    db: DisjunctiveDatabase,
) -> Tuple[Interpretation, bool]:
    """``(perfect model, consistent)`` of a stratified normal database,
    memoized.

    Callers must have established the gate (stratified, every head ≤ 1
    atom — the planner checks the fragment profile); elsewhere the
    result is meaningless.
    """
    from ..engine.cache import ENGINE_CACHE

    model, consistent = ENGINE_CACHE.get_or_compute(
        _PERFECT_MODEL_KIND, db, lambda: _compute_perfect_model(db)
    )
    return Interpretation(model), consistent


def supported_model_tight(
    db: DisjunctiveDatabase,
) -> Tuple[Interpretation, bool]:
    """``(the unique supported model, consistency)`` of a stratified,
    positive-acyclic normal database.

    On that fragment the Clark completion has exactly one model and it
    is the perfect model: positive acyclicity makes the database *tight*,
    so supported models coincide with stable models (Fages), and a
    stratified normal database has the perfect model as its unique
    stable model (Apt–Blair–Walker).  The computation is therefore the
    memoized :func:`stratified_perfect_model` fixpoint — zero SAT calls.
    Callers must have established the gate (the planner checks
    ``is_stratified``, head width ≤ 1 and positive acyclicity on the
    fragment profile); elsewhere the result is meaningless.
    """
    return stratified_perfect_model(db)


def hcf_free_atoms(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """``ff(DB)`` by founded witness queries, memoized per database.

    The closure is a property of the database alone, so one computation
    serves every subsequent GCWA/CCWA-style query — the planner's
    closure path amortizes to one classical SAT call per query.
    """
    from ..engine.cache import ENGINE_CACHE

    def compute() -> FrozenSet[str]:
        with HeadCycleFreeSolver(db) as solver:
            return solver.np_free_for_negation()

    return ENGINE_CACHE.get_or_compute(_HCF_FF_KIND, db, compute)


def is_founded_minimal(
    db: DisjunctiveDatabase, model: Iterable[str]
) -> bool:
    """The Ben-Eliyahu–Dechter foundedness check: is ``model`` a
    *founded* model of the negation-free database ``db``?

    An atom ``a`` of ``M`` is foundable once some clause has ``a`` in its
    head, its positive body inside the already-founded set, and no
    *other* head atom true in ``M``.  If every atom of ``M`` is founded
    (and ``M`` is a model), no proper submodel exists — the check is a
    **sound** minimality test for any negation-free database, and
    complete exactly on the head-cycle-free fragment.  Polynomial, zero
    SAT calls.
    """
    true_atoms = frozenset(model)
    relevant = [
        (clause, tuple(clause.head & true_atoms))
        for clause in db.clauses
        if clause.head
        and clause.body_pos <= true_atoms
        and not (clause.body_neg & true_atoms)
        and len(clause.head & true_atoms) == 1
    ]
    founded: set = set()
    changed = True
    while changed:
        changed = False
        for clause, head_true in relevant:
            (atom,) = head_true
            if atom in founded:
                continue
            if clause.body_pos <= founded:
                founded.add(atom)
                changed = True
    return founded == set(true_atoms)


class HeadCycleFreeSolver(MinimalModelSolver):
    """NP-level minimal-model queries for head-cycle-free deductive
    databases.

    Runs the guess loop of :class:`~repro.sat.minimal.MinimalModelSolver`,
    but the minimality test is the polynomial foundedness check, after
    the guess is shrunk within the search scope.  The methods are
    deliberately *not* named ``find_minimal_satisfying`` and *not*
    decorated with ``counts_as_sigma2_dispatch``, because on this
    fragment they realize an NP machine (plain SAT calls only).  Using
    this class on a database with head cycles is unsound (the planner
    gates on the fragment profile).
    """

    def _founded_witness(
        self, searcher: Scope, assumptions: Sequence[Literal] = ()
    ) -> Optional[Interpretation]:
        """A founded model of ``searcher``'s constraints under
        ``assumptions``, or ``None``: each guess is shrunk within the
        scope first, so the foundedness checks stay few."""
        for candidate in self._candidates(searcher, assumptions):
            candidate = self.shrink(
                candidate, within=searcher, assumptions=assumptions
            )
            if is_founded_minimal(self.db, candidate):
                return candidate
        return None

    def np_find_minimal_satisfying(
        self, condition: Formula
    ) -> Optional[Interpretation]:
        """A minimal model of the theory satisfying ``condition``, or
        ``None`` — candidate generation (SAT) plus foundedness checks
        (polynomial); never dispatches the Σ₂ᵖ primitive."""
        with self._inc.scope() as searcher:
            searcher.add_formula(condition)
            return self._founded_witness(searcher)

    def np_entails(self, formula: Formula) -> bool:
        """Minimal-model entailment via the NP-level machine: true iff
        no minimal model satisfies ``¬formula``."""
        return self.np_find_minimal_satisfying(Not(formula)) is None

    def np_free_for_negation(self) -> FrozenSet[str]:
        """``ff(DB)`` — atoms false in every minimal model — as one
        batched NP-level sweep over the vocabulary in a single scope
        (the GCWA/CCWA closure input)."""
        with self._inc.scope() as searcher:
            return frozenset(
                atom
                for atom in self.levels[0]
                if self._founded_witness(searcher, [Literal.pos(atom)]) is None
            )
