"""Explanations: auditable witnesses for the decision procedures.

A "no" answer to cautious inference has a succinct certificate — a
selected model falsifying the query — and the tractable fixpoint
semantics even have *derivations*.  This module turns the engines'
internal witnesses into objects a caller (or a test) can re-check
independently:

* :func:`explain_non_inference` — a counter-model certificate for
  ``DB ⊭_S F``: the witness of the semantics' own search, checked by a
  per-semantics membership test;
* :func:`derivation_of` — a step-by-step derivation of a possibly-true
  atom (the DDR/PWS fixpoint), each step naming the clause used;
* :func:`explain_closure_literal` — for GCWA/CCWA: the minimal-model
  witness keeping an atom un-negated, or the statement that none exists.

Every certificate's :meth:`check` re-verifies it from scratch against
the database, without trusting the engine that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..errors import NotPositiveError, ReproError
from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Var
from ..logic.interpretation import Interpretation, ThreeValuedInterpretation
from .base import get_semantics, ground_query


@dataclass
class CounterModelCertificate:
    """A selected model falsifying a query — the certificate that
    cautious inference fails.

    Attributes:
        semantics: the semantics' canonical name.
        model: the counter-model (2- or 3-valued, matching the semantics).
        query: the formula it falsifies.
    """

    semantics: str
    model: Union[Interpretation, ThreeValuedInterpretation]
    query: Formula

    def check(self, db: DisjunctiveDatabase) -> bool:
        """Re-verify the certificate from scratch: the model falsifies
        the query and is genuinely selected by the semantics."""
        if isinstance(self.model, ThreeValuedInterpretation):
            from ..logic.formula import TRUE3

            if self.model.degree(self.query) == TRUE3:
                return False
            from .pdsm import is_partial_stable

            return is_partial_stable(db, self.model)
        if self.model.satisfies(self.query):
            return False
        checker = _MEMBERSHIP_CHECKS.get(self.semantics)
        if checker is None:
            raise ReproError(
                f"no membership check for semantics {self.semantics!r}"
            )
        return checker(db, self.model)

    def render(self) -> str:
        return (
            f"{self.semantics.upper()} counter-model {self.model} "
            f"falsifies {self.query}"
        )


def _check_minimal(db, model):
    from ..sat.minimal import is_minimal_model

    return is_minimal_model(db, model)


def _check_gcwa(db, model):
    from .gcwa import Gcwa

    return db.is_model(model) and not (model & Gcwa().free_atoms(db))


def _check_stable(db, model):
    from .dsm import is_stable_model

    return is_stable_model(db, model)


def _check_perfect(db, model):
    from .perf import is_perfect

    return is_perfect(db, model)


def _check_possible(db, model):
    from .pws import is_possible_model

    return is_possible_model(db, model)


def _check_ddr(db, model):
    from .ddr import Ddr

    semantics = Ddr()
    return db.is_model(model) and not (model & semantics.negated_atoms(db))


def _check_cwa(db, model):
    from .cwa import cwa_closure

    return cwa_closure(db).is_model(model)


def _check_iterated(db, model):
    from ..sat.minimal import MinimalModelSolver
    from .icwa import Icwa

    shifted, levels = Icwa()._setup(db)
    with MinimalModelSolver(shifted, levels) as solver:
        return shifted.is_model(model) and solver.is_minimal(model)


def _check_supported(db, model):
    from .supported import is_supported_model

    return is_supported_model(db, model)


_MEMBERSHIP_CHECKS = {
    "egcwa": _check_minimal,
    "ecwa": _check_minimal,  # default partition: plain minimality
    "gcwa": _check_gcwa,
    "ccwa": _check_gcwa,  # default partition: CCWA is GCWA
    "cwa": _check_cwa,
    "icwa": _check_iterated,
    "dsm": _check_stable,
    "perf": _check_perfect,
    "pws": _check_possible,
    "ddr": _check_ddr,
    "supported": _check_supported,
}


def explain_non_inference(
    db: DisjunctiveDatabase,
    formula: Formula,
    semantics: str = "egcwa",
) -> Optional[CounterModelCertificate]:
    """A checkable counter-model for ``DB ⊭_S F``, or ``None`` when the
    formula *is* inferred: the witness of the semantics' own search
    (:meth:`~repro.semantics.base.Semantics.counter_model`)."""
    engine = get_semantics(semantics)
    witness = engine.counter_model(db, formula)
    if witness is None:
        return None
    return CounterModelCertificate(
        engine.name, witness, ground_query(db, formula)
    )


# ----------------------------------------------------------------------
# Derivations for the fixpoint semantics
# ----------------------------------------------------------------------
@dataclass
class DerivationStep:
    """One fixpoint step: ``atom`` becomes possibly true via ``clause``
    (whose positive body atoms were all derived earlier)."""

    atom: str
    clause: Clause

    def render(self) -> str:
        return f"{self.atom}  via  {self.clause}"


@dataclass
class Derivation:
    """A derivation of a possibly-true atom, in dependency order."""

    target: str
    steps: List[DerivationStep] = field(default_factory=list)

    def check(self, db: DisjunctiveDatabase) -> bool:
        """Re-verify: every step's clause is in DB, its head contains the
        step's atom, and its body atoms were derived by earlier steps."""
        derived: set = set()
        for step in self.steps:
            if step.clause not in db.clauses:
                return False
            if step.atom not in step.clause.head:
                return False
            if not step.clause.body_pos <= derived:
                return False
            derived.add(step.atom)
        return self.target in derived

    def render(self) -> str:
        lines = [f"derivation of {self.target}:"]
        lines += [f"  {i+1}. {s.render()}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)


def derivation_of(
    db: DisjunctiveDatabase, atom: str
) -> Optional[Derivation]:
    """A derivation showing ``atom`` is possibly true (in the DDR/PWS
    fixpoint), or ``None`` when it is not.

    The derivation is built backwards from the fixpoint computation: each
    needed atom is justified by the first clause that derived it.
    """
    if db.has_negation:
        raise NotPositiveError(
            "derivations are defined for deductive databases"
        )
    justification: dict = {}
    order: List[str] = []
    changed = True
    while changed:
        changed = False
        for clause in sorted(db.clauses):
            if clause.is_integrity:
                continue
            if clause.body_pos <= set(justification):
                for head_atom in sorted(clause.head):
                    if head_atom not in justification:
                        justification[head_atom] = clause
                        order.append(head_atom)
                        changed = True
    if atom not in justification:
        return None
    # Collect the transitive support of the target, in derivation order.
    needed: set = set()

    def collect(target: str) -> None:
        if target in needed:
            return
        needed.add(target)
        for body_atom in justification[target].body_pos:
            collect(body_atom)

    collect(atom)
    steps = [
        DerivationStep(a, justification[a]) for a in order if a in needed
    ]
    return Derivation(atom, steps)


# ----------------------------------------------------------------------
# Closure-literal explanations
# ----------------------------------------------------------------------
@dataclass
class ClosureExplanation:
    """Why a closure does / does not negate an atom.

    Attributes:
        atom: the atom in question.
        negated: whether the closure adds ``¬atom``.
        witness: when not negated — a minimal model containing the atom.
    """

    atom: str
    negated: bool
    witness: Optional[Interpretation] = None

    def check(self, db: DisjunctiveDatabase) -> bool:
        from ..sat.minimal import is_minimal_model

        if self.negated:
            return self.witness is None
        return (
            self.witness is not None
            and self.atom in self.witness
            and is_minimal_model(db, self.witness)
        )

    def render(self) -> str:
        if self.negated:
            return (
                f"¬{self.atom} is in the GCWA closure: no minimal model "
                f"contains {self.atom}"
            )
        return (
            f"{self.atom} stays open: minimal model {self.witness} "
            f"contains it"
        )


def explain_closure_literal(
    db: DisjunctiveDatabase, atom: str
) -> ClosureExplanation:
    """Explain GCWA's decision about ``atom`` with a checkable witness."""
    from ..sat.minimal import MinimalModelSolver

    if atom not in db.vocabulary:
        return ClosureExplanation(atom, negated=True, witness=None)
    with MinimalModelSolver(db) as solver:
        witness = solver.find_minimal_satisfying(Var(atom))
    if witness is None:
        return ClosureExplanation(atom, negated=True, witness=None)
    return ClosureExplanation(atom, negated=False, witness=witness)
