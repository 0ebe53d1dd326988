"""Metamorphic and boundary mutators for adversarial scenario search.

Two families of database mutations feed the divergence hunter
(:mod:`repro.adversary.hunter`):

* **Metamorphic mutators** transform a database while *provably
  preserving the answers* of a documented set of semantics (on queries
  over the original vocabulary).  Each mutator states its preservation
  contract in :attr:`Mutator.preserves`, justified clause by clause in
  its docstring; the contract is enforced by
  ``tests/test_metamorphic.py`` across all five engines.  Because the
  answers may not change, the *original database evaluated once* is a
  perfect differential oracle for the mutant — no ground-truth
  enumeration needed.

* **Boundary mutators** take a database classified by
  :mod:`repro.analysis.fragment` and nudge it *just across* one edge of
  the fragment lattice (barely-non-Horn, barely-non-HCF,
  barely-non-stratified).  They make no preservation claim; their
  product is a scenario sitting exactly where the fragment planner's
  dispatch and the certifier's tightened envelopes change regime — the
  places a misclassification goes unnoticed by ordinary random testing.
  Each declares a :attr:`Mutator.target` checked by
  :func:`boundary_target_met`.

The rewritings echo the shift/split transformations studied in the
minimal-founded-semantics line (PAPERS.md, cs/0312028) and the
trichotomy boundary classes of Truszczyński (PAPERS.md, arXiv
1007.2816).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.fragment import FragmentProfile
from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import (
    And,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Var,
)
from ..logic.parser import parse_database
from ..logic.transform import rename_atoms, shift_negation_to_head

#: Every registered paper semantics the differential stack exercises.
ALL_SEMANTICS: Tuple[str, ...] = (
    "gcwa", "ccwa", "egcwa", "ecwa", "ddr", "pws", "perf", "icwa",
    "dsm", "pdsm",
)

#: Semantics whose selected models are a function of the *classical*
#: model set alone (minimal / (P;Z)-minimal models of ``Mod(DB)``).
#: Any transformation preserving classical models preserves these.
MODEL_BASED: Tuple[str, ...] = ("gcwa", "ccwa", "egcwa", "ecwa")


def rename_formula(formula: Formula, mapping: Dict[str, str]) -> Formula:
    """Apply an atom renaming to a query formula (identity off-map)."""
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Var):
        return Var(mapping.get(formula.name, formula.name))
    if isinstance(formula, Not):
        return Not(rename_formula(formula.operand, mapping))
    if isinstance(formula, And):
        return And(*(rename_formula(f, mapping) for f in formula.operands))
    if isinstance(formula, Or):
        return Or(*(rename_formula(f, mapping) for f in formula.operands))
    if isinstance(formula, Implies):
        return Implies(
            rename_formula(formula.antecedent, mapping),
            rename_formula(formula.consequent, mapping),
        )
    if isinstance(formula, Iff):
        return Iff(
            rename_formula(formula.left, mapping),
            rename_formula(formula.right, mapping),
        )
    raise TypeError(f"unknown formula node: {formula!r}")


def fresh_atom(db: DisjunctiveDatabase, prefix: str = "zz") -> str:
    """An atom name guaranteed not to occur in ``db``'s vocabulary."""
    index = 0
    while f"{prefix}{index}" in db.vocabulary:
        index += 1
    return f"{prefix}{index}"


@dataclass(frozen=True)
class MutationResult:
    """One applied mutation.

    Attributes:
        mutator: catalogue name of the mutator that produced this.
        db: the mutated database.
        preserves: semantics names whose *answers* (``infers``,
            ``infers_literal``, ``has_model``) on queries over the
            original vocabulary are unchanged — empty for boundary
            mutators, which claim nothing.
        preserves_model_set: whether ``model_set`` itself is unchanged
            (requires an unchanged vocabulary; stricter than answer
            preservation).
        query_map: atom renaming to apply to queries before evaluating
            them against :attr:`db` (``None`` = identity).
        target: for boundary mutators, the lattice edge the mutant must
            have crossed (see :func:`boundary_target_met`).
        note: human-readable description of what was changed.
    """

    mutator: str
    db: DisjunctiveDatabase
    preserves: Tuple[str, ...] = ()
    preserves_model_set: bool = False
    query_map: Optional[Dict[str, str]] = None
    target: Optional[str] = None
    note: str = ""

    def map_query(self, formula: Formula) -> Formula:
        """The query as it must be asked against the mutated database."""
        if not self.query_map:
            return formula
        return rename_formula(formula, self.query_map)

    def map_atom(self, atom: str) -> str:
        if not self.query_map:
            return atom
        return self.query_map.get(atom, atom)


class Mutator:
    """Base class: one entry of the mutation catalogue.

    Attributes:
        name: catalogue key (stable; appears in seed lines and reports).
        kind: ``"metamorphic"`` or ``"boundary"``.
        preserves: the documented preservation contract (metamorphic
            mutators only) — the semantics under which original and
            mutant answers must coincide.
        preserves_model_set: whether the contract extends to the raw
            selected-model set.
        target: the lattice edge a boundary mutator must cross.
    """

    name: str = ""
    kind: str = "metamorphic"
    preserves: Tuple[str, ...] = ()
    preserves_model_set: bool = False
    target: Optional[str] = None

    def applicable(
        self, db: DisjunctiveDatabase, profile: FragmentProfile
    ) -> bool:
        """Whether this mutator can act on ``db`` at all."""
        return len(db.clauses) > 0

    def apply(
        self, db: DisjunctiveDatabase, rng: random.Random
    ) -> Optional[MutationResult]:
        """Produce a mutant, or ``None`` when no opportunity exists
        (callers treat ``None`` as 'skip', not as an error)."""
        raise NotImplementedError

    def _result(self, db: DisjunctiveDatabase, **kwargs) -> MutationResult:
        kwargs.setdefault("preserves", self.preserves)
        kwargs.setdefault("preserves_model_set", self.preserves_model_set)
        kwargs.setdefault("target", self.target)
        return MutationResult(mutator=self.name, db=db, **kwargs)


# ----------------------------------------------------------------------
# Metamorphic mutators
# ----------------------------------------------------------------------
class RenameMutator(Mutator):
    """Uniform injective atom renaming.

    Every semantics in the paper is defined up to the names of atoms, so
    renaming preserves *all* answers once the query is renamed the same
    way (:attr:`MutationResult.query_map`).  The model set is preserved
    only up to renaming, so ``preserves_model_set`` stays ``False``.
    """

    name = "rename"
    preserves = ALL_SEMANTICS

    def apply(self, db, rng):
        atoms = sorted(db.vocabulary)
        if not atoms:
            return None
        shuffled = list(atoms)
        rng.shuffle(shuffled)
        prefix = "rn_"
        while any(a.startswith(prefix) for a in atoms):
            prefix += "_"
        mapping = {
            old: f"{prefix}{new}" for old, new in zip(atoms, shuffled)
        }
        return self._result(
            rename_atoms(db, mapping),
            query_map=mapping,
            note=f"renamed {len(mapping)} atoms injectively",
        )


class ReorderMutator(Mutator):
    """Clause reordering via a serialize → shuffle → re-parse round trip.

    Databases are clause *sets*, so any textual ordering must parse back
    to a structurally identical database; every semantics (and the model
    set) is trivially preserved.  What this actually stresses is the
    parser/renderer round trip — a discrepancy here would silently
    desynchronize the corpus files from the databases they encode.
    """

    name = "reorder"
    preserves = ALL_SEMANTICS
    preserves_model_set = True

    def apply(self, db, rng):
        lines = [str(clause) for clause in db]
        rng.shuffle(lines)
        reparsed = parse_database("\n".join(lines))
        # Re-parsing narrows the vocabulary to the occurring atoms; put
        # any silent vocabulary atoms back.
        mutant = reparsed.with_vocabulary(db.vocabulary)
        return self._result(
            mutant, note=f"round-tripped {len(lines)} shuffled clause(s)"
        )


class DuplicateMutator(Mutator):
    """Duplicate-clause insertion.

    The clause set is a ``frozenset``, so inserting a structural copy of
    an existing clause must collapse to the identical database; all
    semantics and the model set are preserved.  This guards the
    structural-equality/hashing layer the engine cache keys on.
    """

    name = "duplicate"
    preserves = ALL_SEMANTICS
    preserves_model_set = True

    def apply(self, db, rng):
        if not db.clauses:
            return None
        clause = rng.choice(sorted(db.clauses))
        copy = Clause(clause.head, clause.body_pos, clause.body_neg)
        return self._result(
            db.with_clauses([copy]),
            note=f"re-inserted structural duplicate of `{clause}`",
        )


class TautologyPadMutator(Mutator):
    """Fresh-atom tautology padding: add ``x :- x.`` for a fresh ``x``.

    The new clause is classically valid, so over the widened vocabulary
    every model merely chooses ``x`` freely — and every minimization
    (GCWA/EGCWA/CCWA/ECWA with default partitions, DDR's
    derivability, PWS split programs, PERF/ICWA strata, DSM reducts,
    PDSM's 3-valued minimality) drives ``x`` to false.  Answers to
    queries over the *original* vocabulary are therefore unchanged under
    every semantics.  The vocabulary grew, so the raw model set did
    change (every model gains the ``x = false`` coordinate).
    """

    name = "tautology_pad"
    preserves = ALL_SEMANTICS

    def apply(self, db, rng):
        atom = fresh_atom(db, prefix="pad")
        clause = Clause.rule([atom], [atom])
        return self._result(
            db.with_clauses([clause]),
            note=f"padded with fresh tautology `{clause}`",
        )


class ComponentCloneMutator(Mutator):
    """Component cloning: a disjoint renamed copy of the whole database.

    By the connected-component product law (:mod:`repro.sat.decompose`)
    the selected models of ``DB ⊎ DB'`` are exactly the products of the
    parts' selected models, for every semantics whose selection
    relation is pointwise (all ten here: minimality, stability,
    perfection and possible-model selection all factor over disjoint
    vocabularies).  The clone is consistent exactly when the original
    is, so for queries over the original vocabulary both cautious
    inference and model existence are unchanged.  The model set becomes
    the product, so it is *not* preserved.
    """

    name = "component_clone"
    preserves = ALL_SEMANTICS

    def applicable(self, db, profile):
        # Cloning doubles the vocabulary; keep brute ground truth
        # feasible for the hunter's differential stack.
        return 0 < len(db.vocabulary) <= 6

    def apply(self, db, rng):
        prefix = fresh_atom(db, prefix="cl")
        mapping = {a: f"{prefix}_{a}" for a in sorted(db.vocabulary)}
        clone = rename_atoms(db, mapping)
        merged = DisjunctiveDatabase(
            db.clauses | clone.clauses, db.vocabulary | clone.vocabulary
        )
        return self._result(
            merged,
            note=(
                f"added disjoint renamed clone ({len(clone.clauses)} "
                f"clause(s), prefix `{prefix}_`)"
            ),
        )


class HeadShiftMutator(Mutator):
    """Head-shift rewriting: move every ``not c`` into the head.

    ``a :- b, not c`` and ``a | c :- b`` denote the same propositional
    clause, so the classical model set — and with it every semantics
    that is a function of the classical model set (the
    minimal-model/circumscriptive family :data:`MODEL_BASED`) — is
    preserved exactly, model set included.  Negation-*sensitive*
    semantics (DSM, PDSM, PERF, ICWA) genuinely change under shifting
    and are deliberately outside the contract; WGCWA/DDR and PWS reject
    negation so the original side is not even defined.
    """

    name = "head_shift"
    preserves = MODEL_BASED
    preserves_model_set = True

    def applicable(self, db, profile):
        return db.has_negation

    def apply(self, db, rng):
        shifted = shift_negation_to_head(db)
        moved = sum(len(c.body_neg) for c in db.clauses)
        return self._result(
            shifted,
            note=f"shifted {moved} negative body literal(s) into heads",
        )


class BodySplitMutator(Mutator):
    """Body-split rewriting: factor a long body through a fresh atom.

    ``h :- b1, ..., bk [, not ...]`` (``k >= 2``) becomes::

        h :- b1, aux [, not ...]        aux :- b2, ..., bk.

    In every minimal (or stable, perfect, possible) model the fresh
    ``aux`` holds exactly when ``b2, ..., bk`` do — the defining rule
    forces it upward and minimization presses it downward — so
    restriction to the original vocabulary is a bijection between the
    two databases' selected models.  Answers over the original
    vocabulary are preserved for every semantics; PDSM is included
    (``aux`` takes the minimum of its body's three values in any
    partial stable model).  The vocabulary grew, so the raw model set
    is not preserved.
    """

    name = "body_split"
    preserves = ALL_SEMANTICS

    def applicable(self, db, profile):
        return any(len(c.body_pos) >= 2 for c in db.clauses)

    def apply(self, db, rng):
        candidates = sorted(
            c for c in db.clauses if len(c.body_pos) >= 2
        )
        if not candidates:
            return None
        clause = rng.choice(candidates)
        body = sorted(clause.body_pos)
        keep = rng.choice(body)
        rest = [b for b in body if b != keep]
        aux = fresh_atom(db, prefix="aux")
        replaced = Clause(clause.head, frozenset((keep, aux)), clause.body_neg)
        definition = Clause.rule([aux], rest)
        clauses = (db.clauses - {clause}) | {replaced, definition}
        mutant = DisjunctiveDatabase(clauses, db.vocabulary | {aux})
        return self._result(
            mutant,
            note=f"split body of `{clause}` through fresh `{aux}`",
        )


# ----------------------------------------------------------------------
# Boundary mutators
# ----------------------------------------------------------------------
class WidenHeadMutator(Mutator):
    """Barely-non-Horn: widen exactly one head of a Horn database.

    The mutant has exactly one disjunctive clause, so it sits one edit
    outside the Horn cell — the planner must abandon the zero-SAT
    unit-propagation path and the certifier must widen the envelope from
    P, while almost the entire database still *looks* Horn.
    """

    name = "widen_head"
    kind = "boundary"
    target = "non-horn"

    def applicable(self, db, profile):
        return (
            profile.is_horn
            and len(db.vocabulary) >= 2
            and any(c.head for c in db.clauses)
        )

    def apply(self, db, rng):
        candidates = sorted(c for c in db.clauses if c.head)
        clause = rng.choice(candidates)
        extra_pool = sorted(
            db.vocabulary - clause.head - clause.body_pos
        )
        if not extra_pool:
            return None
        extra = rng.choice(extra_pool)
        widened = Clause(
            clause.head | {extra}, clause.body_pos, clause.body_neg
        )
        clauses = (db.clauses - {clause}) | {widened}
        return self._result(
            DisjunctiveDatabase(clauses, db.vocabulary),
            note=f"widened head of `{clause}` with `{extra}`",
        )


class CloseHeadCycleMutator(Mutator):
    """Barely-non-HCF: close one positive cycle through a shared head.

    Picks a disjunctive clause with head atoms ``a, b`` and adds
    ``a :- b.`` and ``b :- a.``, putting both head atoms into one SCC of
    the positive dependency graph — the exact Ben-Eliyahu–Dechter
    violation.  The planner's NP-level foundedness fast path is complete
    only up to this edge; one step past it the Σ₂ᵖ machinery must take
    over.
    """

    name = "close_head_cycle"
    kind = "boundary"
    target = "non-hcf"

    def applicable(self, db, profile):
        return (
            profile.negation_free
            and profile.head_cycle_free
            and profile.disjunctive_clauses > 0
        )

    def apply(self, db, rng):
        candidates = sorted(c for c in db.clauses if c.is_disjunctive)
        if not candidates:
            return None
        clause = rng.choice(candidates)
        a, b = sorted(rng.sample(sorted(clause.head), 2))
        tie = [Clause.rule([a], [b]), Clause.rule([b], [a])]
        return self._result(
            db.with_clauses(tie),
            note=(
                f"tied head atoms `{a}`/`{b}` of `{clause}` into one "
                "positive cycle"
            ),
        )


class BreakStratificationMutator(Mutator):
    """Barely-non-stratified: attach one even negative loop.

    Adds ``x :- not y.  y :- not x.`` over two *fresh* atoms: a single
    unstratifiable component, disjoint from the original database.  The
    stratification-dependent dispatches (ICWA, PERF, the stratified
    certifier rows) must all step back to the general cell, while the
    original clauses are untouched.
    """

    name = "break_stratification"
    kind = "boundary"
    target = "unstratified"

    def applicable(self, db, profile):
        return profile.is_stratified

    def apply(self, db, rng):
        x = fresh_atom(db, prefix="loopx")
        y = fresh_atom(db.with_vocabulary([x]), prefix="loopy")
        loop = [
            Clause.rule([x], (), [y]),
            Clause.rule([y], (), [x]),
        ]
        return self._result(
            db.with_clauses(loop),
            note=f"attached even negative loop over fresh `{x}`/`{y}`",
        )


#: The catalogue, in stable order (seed lines index into this by name).
MUTATORS: Tuple[Mutator, ...] = (
    RenameMutator(),
    ReorderMutator(),
    DuplicateMutator(),
    TautologyPadMutator(),
    ComponentCloneMutator(),
    HeadShiftMutator(),
    BodySplitMutator(),
    WidenHeadMutator(),
    CloseHeadCycleMutator(),
    BreakStratificationMutator(),
)

MUTATORS_BY_NAME: Dict[str, Mutator] = {m.name: m for m in MUTATORS}


def metamorphic_mutators() -> Tuple[Mutator, ...]:
    """The catalogue entries carrying a preservation contract."""
    return tuple(m for m in MUTATORS if m.kind == "metamorphic")


def boundary_mutators() -> Tuple[Mutator, ...]:
    """The catalogue entries that nudge across a fragment-lattice edge."""
    return tuple(m for m in MUTATORS if m.kind == "boundary")


def boundary_target_met(
    target: str, before: FragmentProfile, after: FragmentProfile
) -> bool:
    """Whether a boundary mutant landed just across the intended edge."""
    if target == "non-horn":
        return (
            not after.is_horn
            and after.negation_free == before.negation_free
            and after.disjunctive_clauses == 1
        )
    if target == "non-hcf":
        return not after.head_cycle_free and after.negation_free
    if target == "unstratified":
        return not after.is_stratified
    raise ValueError(f"unknown boundary target {target!r}")


def applicable_semantics(db: DisjunctiveDatabase) -> Tuple[str, ...]:
    """The registered paper semantics defined on ``db``'s regime.

    Mirrors the regime table of ``tests/test_differential.py``: DDR and
    PWS reject negation, PERF rejects integrity clauses and demands a
    stratification, ICWA demands a stratification.
    """
    from ..engine.cache import stratification_for

    names: List[str] = ["gcwa", "ccwa", "egcwa", "ecwa", "dsm", "pdsm"]
    if not db.has_negation:
        names += ["ddr", "pws"]
    stratified = stratification_for(db) is not None
    if stratified:
        names.append("icwa")
        if not db.has_integrity_clauses:
            names.append("perf")
    return tuple(n for n in ALL_SEMANTICS if n in names)
