"""The disjunctive state: Minker/Rajasekar's ``T_DB ↑ ω`` in full.

Section 3.2 of the paper defines DDR through the fixpoint of derivable
positive disjunctions.  :mod:`repro.semantics.ddr` only needs the *atoms*
of that fixpoint (computable via the Horn relaxation); this module
computes the fixpoint itself — the *model state*: the ⊆-minimal positive
disjunctions derivable from the database — plus the closure objects the
closed-world semantics are usually presented with:

* :func:`disjunctive_state` — minimal derivable disjunctions (exact
  ``T_DB ↑ ω``, minimized);
* :func:`gcwa_closure_literals` — the negative literals GCWA adds;
* :func:`egcwa_closure_clauses` — the integrity clauses
  ``:- a1, ..., an`` EGCWA adds (minimal conjunctions false in every
  minimal model, Yahya & Henschen's original formulation);
* :func:`wgcwa_closure_literals` — the negative literals WGCWA/DDR adds.

Soundness facts verified by the tests: every state disjunction is
classically entailed by DB; the state's atoms are exactly
:func:`~repro.semantics.ddr.possibly_true_atoms`; augmenting DB by its
EGCWA closure leaves the minimal models unchanged; and the size-1 EGCWA
closure bodies are exactly the GCWA closure literals.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Optional, Set

from ..errors import NotPositiveError
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Var, conj
from ..sat.minimal import MinimalModelSolver

Disjunction = FrozenSet[str]


def _minimize(family: Set[Disjunction]) -> Set[Disjunction]:
    """Keep only the ⊆-minimal sets of a family."""
    result: Set[Disjunction] = set()
    for candidate in sorted(family, key=len):
        if not any(kept <= candidate for kept in result):
            result.add(candidate)
    return result


def disjunctive_state(
    db: DisjunctiveDatabase,
    max_width: Optional[int] = None,
    max_iterations: int = 10_000,
    minimized: bool = True,
) -> FrozenSet[Disjunction]:
    """The fixpoint of derivable positive disjunctions.

    Two variants, both derived by positive hyperresolution:

    * ``minimized=True`` (default) — the *minimal model state* of Minker:
      only ⊆-minimal derivable disjunctions are kept.  By Minker's
      theorem these are exactly the minimal positive clauses entailed by
      an IC-free positive DDB, so their atoms are the complement of the
      GCWA closure (property-tested).
    * ``minimized=False`` — Ross & Topor's full ``T_DB ↑ ω``, the family
      DDR/WGCWA is defined from: an atom is negated iff it occurs in *no*
      derivable disjunction, minimal or not.

    Args:
        db: a deductive database (no negation; integrity clauses are
            ignored by the operator, exactly as in the paper).
        max_width: drop derived disjunctions wider than this (a safety
            valve — the full state can be exponential).
        max_iterations: hard stop for the outer fixpoint loop.
        minimized: see above.
    """
    if db.has_negation:
        raise NotPositiveError(
            "the disjunctive state is defined for deductive databases"
        )
    state: Set[Disjunction] = set()
    rules = [c for c in db.clauses if not c.is_integrity]

    for _ in range(max_iterations):
        new: Set[Disjunction] = set()
        for clause in rules:
            body = sorted(clause.body_pos)
            if not body:
                candidate = frozenset(clause.head)
                if max_width is None or len(candidate) <= max_width:
                    new.add(candidate)
                continue
            # Choose, for each body atom, a state disjunction containing
            # it; resolve them all with the clause.
            options = []
            feasible = True
            for atom in body:
                containing = [d for d in state if atom in d]
                if not containing:
                    feasible = False
                    break
                options.append(containing)
            if not feasible:
                continue
            for combo in itertools.product(*options):
                candidate = frozenset(clause.head)
                for atom, chosen in zip(body, combo):
                    candidate |= chosen - {atom}
                if max_width is not None and len(candidate) > max_width:
                    continue
                new.add(candidate)
        merged = _minimize(state | new) if minimized else (state | new)
        if merged == state:
            return frozenset(state)
        state = merged
    raise RuntimeError("disjunctive state did not converge")


def state_atoms(state: Iterable[Disjunction]) -> FrozenSet[str]:
    """All atoms occurring in a state."""
    return frozenset(a for d in state for a in d)


def wgcwa_closure_literals(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """Atoms negated by WGCWA/DDR: those occurring in no derivable
    disjunction of the *unminimized* ``T_DB ↑ ω``."""
    return frozenset(db.vocabulary) - state_atoms(
        disjunctive_state(db, minimized=False)
    )


def minimal_state_atoms(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """Atoms occurring in some *minimal* derivable disjunction.

    By Minker's theorem (for positive IC-free DDBs) this is exactly the
    complement of the GCWA closure — a proof-theoretic route to the same
    set the Σ₂ᵖ machinery computes model-theoretically; the agreement is
    property-tested.
    """
    return state_atoms(disjunctive_state(db, minimized=True))


def gcwa_closure_literals(db: DisjunctiveDatabase) -> FrozenSet[str]:
    """Atoms negated by GCWA (false in every minimal model) — computed
    via the Σ₂ᵖ primitive; re-exported here for the closure view."""
    from .gcwa import free_for_negation

    return free_for_negation(db)


def egcwa_closure_clauses(
    db: DisjunctiveDatabase, max_size: int = 3
) -> FrozenSet[FrozenSet[str]]:
    """The EGCWA closure (Yahya & Henschen): minimal atom sets
    ``{a1, .., an}`` (up to ``max_size``) such that ``a1 ∧ .. ∧ an`` is
    false in every minimal model — each contributes the integrity clause
    ``:- a1, .., an`` to the closure.

    Each candidate costs one "∃ minimal model ⊇ A" query (the Σ₂ᵖ
    primitive); candidates are visited smallest-first so non-minimal
    supersets are pruned.
    """
    closure: Set[FrozenSet[str]] = set()
    atoms = sorted(db.vocabulary)
    with MinimalModelSolver(db) as engine:
        for size in range(1, max_size + 1):
            for combo in itertools.combinations(atoms, size):
                candidate = frozenset(combo)
                if any(kept <= candidate for kept in closure):
                    continue  # already implied by a smaller closure clause
                witness = engine.find_minimal_satisfying(
                    conj([Var(a) for a in combo])
                )
                if witness is None:
                    closure.add(candidate)
    return frozenset(closure)
