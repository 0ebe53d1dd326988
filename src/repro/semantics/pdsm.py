"""PDSM — Partial (3-valued) Disjunctive Stable Model semantics
(Przymusinski [20]).

Defined like DSM but over 3-valued interpretations with truth degrees
``0 < 1/2 < 1``: the reduct ``DB^I`` replaces each ``not c`` by the truth
*constant* ``1 - I(c)``, and ``I`` is a partial stable model iff ``I`` is
a ≤-minimal 3-valued model of ``DB^I`` (pointwise truth ordering).  The
total partial stable models are exactly the disjunctive stable models,
which the test suite verifies.

Boolean encoding (used for the NP-oracle checks): each atom ``x`` becomes
the pair ``(t_x, p_x)`` with ``t_x → p_x`` — value 1 = (1,1),
1/2 = (0,1), 0 = (0,0).  A valued clause ``H :- B, β`` (β the collapsed
negative-literal constant) is satisfied iff

* ``val(B ∧ β) ≥ 1/2  ⟹  val(H) ≥ 1/2`` — a clause over the ``p`` vars,
* ``val(B ∧ β) = 1    ⟹  val(H) = 1``  — a clause over the ``t`` vars,

and ``J < I`` is ``true(J) ⊆ true(I) ∧ poss(J) ⊆ poss(I) ∧ J ≠ I``.

Complexity (paper, Section 5.2): same results as DSM — literal/formula
inference Π₂ᵖ-complete, model existence Σ₂ᵖ-complete, and [8] shows the
model-existence lower bound holds even without integrity clauses.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import (
    FALSE3,
    TRUE3,
    And,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
    Var,
    conj,
    disj,
    negation_normal_form,
)
from ..logic.interpretation import (
    ThreeValuedInterpretation,
    all_three_valued,
)
from ..logic.transform import three_valued_reduct
from ..sat.incremental import pooled_scope
from .base import Semantics, ground_query, register

#: Atom-name prefixes of the Boolean encoding.
T_PREFIX = "t__"
P_PREFIX = "p__"


def t_atom(atom: str) -> str:
    """The 'value = 1' Boolean variable for ``atom``."""
    return T_PREFIX + atom


def p_atom(atom: str) -> str:
    """The 'value >= 1/2' Boolean variable for ``atom``."""
    return P_PREFIX + atom


def satisfies_reduct(
    db: DisjunctiveDatabase, interpretation: ThreeValuedInterpretation
) -> bool:
    """``I |= DB^I`` — 3-valued satisfaction of the reduct."""
    return all(
        clause.satisfied_by(interpretation)
        for clause in three_valued_reduct(db, interpretation)
    )


def is_partial_stable_brute(
    db: DisjunctiveDatabase, interpretation: ThreeValuedInterpretation
) -> bool:
    """Reference check by enumerating all 3-valued interpretations."""
    if not satisfies_reduct(db, interpretation):
        return False
    reduct = three_valued_reduct(db, interpretation)
    for other in all_three_valued(db.vocabulary):
        if other.lt(interpretation) and all(
            c.satisfied_by(other) for c in reduct
        ):
            return False
    return True


def _reduct_constraint_clauses(
    db: DisjunctiveDatabase, interpretation: ThreeValuedInterpretation
) -> List[List[Literal]]:
    """Boolean clauses expressing ``J |= DB^I`` over the (t, p) encoding
    of ``J`` (the reduct constants come from ``I``)."""
    clauses: List[List[Literal]] = []
    for valued in three_valued_reduct(db, interpretation):
        if valued.bound == FALSE3:
            continue  # body constant 0: satisfied by everything
        # val(body) >= 1/2  =>  val(head) >= 1/2
        clauses.append(
            [Literal.neg(p_atom(b)) for b in sorted(valued.body_pos)]
            + [Literal.pos(p_atom(h)) for h in sorted(valued.head)]
        )
        if valued.bound == TRUE3:
            # val(body) = 1  =>  val(head) = 1
            clauses.append(
                [Literal.neg(t_atom(b)) for b in sorted(valued.body_pos)]
                + [Literal.pos(t_atom(h)) for h in sorted(valued.head)]
            )
    return clauses


def _tp_setup(db: DisjunctiveDatabase):
    """Setup callable for pooled (t, p)-encoding solvers: the ``t_x → p_x``
    consistency clauses are a pure function of the vocabulary, so they are
    installed once per solver and shared across queries."""

    def setup(solver) -> None:
        for atom in sorted(db.vocabulary):
            solver.add_clause(
                [Literal.neg(t_atom(atom)), Literal.pos(p_atom(atom))]
            )

    return setup


def is_partial_stable(
    db: DisjunctiveDatabase,
    interpretation: ThreeValuedInterpretation,
) -> bool:
    """``I ∈ MM₃(DB^I)`` — polynomial work plus one NP-oracle call."""
    if not satisfies_reduct(db, interpretation):
        return False
    atoms = sorted(db.vocabulary)
    with pooled_scope(
        context=("pdsm-check", db), setup=_tp_setup(db)
    ) as solver:
        for clause in _reduct_constraint_clauses(db, interpretation):
            solver.add_clause(clause)
        # J <= I pointwise:
        for atom in atoms:
            if atom not in interpretation.possible:
                solver.add_unit(Literal.neg(p_atom(atom)))
            if atom not in interpretation.true:
                solver.add_unit(Literal.neg(t_atom(atom)))
        # ... strictly:
        strict = [
            Literal.neg(t_atom(a)) for a in sorted(interpretation.true)
        ]
        strict += [
            Literal.neg(p_atom(a)) for a in sorted(interpretation.possible)
        ]
        if not strict:
            return True  # I is the all-false interpretation: nothing below
        solver.add_clause(strict)
        return not solver.solve()


def encode_degree(formula: Formula, at_least_half: bool) -> Formula:
    """Translate "``formula`` has degree 1" (or ">= 1/2") into a Boolean
    formula over the (t, p) encoding atoms.  The input is NNF-normalized
    first."""
    return _encode(negation_normal_form(formula), at_least_half)


def _encode(formula: Formula, half: bool) -> Formula:
    if isinstance(formula, Top):
        return Top()
    if isinstance(formula, Bottom):
        return Bottom()
    if isinstance(formula, Var):
        return Var(p_atom(formula.name) if half else t_atom(formula.name))
    if isinstance(formula, Not):  # NNF: operand is a Var
        inner = formula.operand
        assert isinstance(inner, Var), "input must be in NNF"
        # deg(¬x) = 1 - deg(x):  =1 iff x = 0 (¬p);  >=1/2 iff x <= 1/2 (¬t).
        return Not(Var(t_atom(inner.name) if half else p_atom(inner.name)))
    if isinstance(formula, And):
        return conj([_encode(op, half) for op in formula.operands])
    if isinstance(formula, Or):
        return disj([_encode(op, half) for op in formula.operands])
    raise TypeError(f"formula not in NNF: {formula!r}")


@register
class Pdsm(Semantics):
    """Partial Disjunctive Stable Model semantics.

    ``model_set`` returns 3-valued interpretations
    (:class:`~repro.logic.interpretation.ThreeValuedInterpretation`);
    ``infers`` requires degree 1 of the formula in every partial stable
    model.
    """

    name = "pdsm"
    aliases = ("partial-stable", "partial-dsm")
    description = "Partial Disjunctive Stable Models (Przymusinski)"

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[ThreeValuedInterpretation]:
        self.validate(db)
        if self.engine == "brute":
            return frozenset(
                i
                for i in all_three_valued(db.vocabulary)
                if is_partial_stable_brute(db, i)
            )
        return frozenset(self._iter_partial_stable(db))

    def _candidate_scope(self, db: DisjunctiveDatabase):
        """A scope on a pooled solver over the (t, p) encoding whose
        models are exactly the 3-valued interpretations ``I`` with
        ``I |= DB^I``: the reduct constants are expressed through the
        candidate's own variables (``1 - I(c) >= 1/2`` iff ``¬t_c``;
        ``= 1`` iff ``¬p_c``).  The encoding is a pure function of the
        database, so it is the solver's permanent theory."""
        tp_setup = _tp_setup(db)

        def setup(solver) -> None:
            tp_setup(solver)
            for clause in db.clauses:
                half: List[Literal] = [
                    Literal.neg(p_atom(b)) for b in sorted(clause.body_pos)
                ]
                half += [
                    Literal.pos(t_atom(c)) for c in sorted(clause.body_neg)
                ]
                half += [
                    Literal.pos(p_atom(h)) for h in sorted(clause.head)
                ]
                solver.add_clause(half)
                full: List[Literal] = [
                    Literal.neg(t_atom(b)) for b in sorted(clause.body_pos)
                ]
                full += [
                    Literal.pos(p_atom(c)) for c in sorted(clause.body_neg)
                ]
                full += [
                    Literal.pos(t_atom(h)) for h in sorted(clause.head)
                ]
                solver.add_clause(full)

        return pooled_scope(context=("pdsm-candidates", db), setup=setup)

    def _decode(
        self, db: DisjunctiveDatabase, model
    ) -> ThreeValuedInterpretation:
        true = {a for a in db.vocabulary if t_atom(a) in model}
        possible = {a for a in db.vocabulary if p_atom(a) in model}
        return ThreeValuedInterpretation(true, possible)

    def _iter_partial_stable(
        self, db: DisjunctiveDatabase, condition: Optional[Formula] = None
    ) -> Iterator[ThreeValuedInterpretation]:
        """Guess-and-check: candidates satisfy ``I |= DB^I`` by
        construction; one NP-oracle minimality check each; exact blocking
        on the (t, p) pattern.

        ``condition`` is a Boolean formula over the encoding atoms.
        """
        encoding_atoms = sorted(
            [t_atom(a) for a in db.vocabulary]
            + [p_atom(a) for a in db.vocabulary]
        )
        with self._candidate_scope(db) as searcher:
            if condition is not None:
                searcher.add_formula(condition)
            for raw in searcher.each_model(encoding_atoms):
                candidate = self._decode(db, raw)
                if is_partial_stable(db, candidate):
                    yield candidate

    def selected_model(self, db: DisjunctiveDatabase, condition: Formula):
        """A partial stable model giving ``condition`` degree 1."""
        if self.engine == "brute":
            return super().selected_model(db, condition)
        encoded = encode_degree(condition, at_least_half=False)
        return next(self._iter_partial_stable(db, encoded), None)

    def counter_model(self, db: DisjunctiveDatabase, formula: Formula):
        """A partial stable model giving ``formula`` degree below 1 (not
        :meth:`selected_model` of ``¬F``: in three values, ``¬F`` of
        degree 1 is ``F`` of degree 0)."""
        self.validate(db)
        query = ground_query(db, formula)
        if self.engine == "brute":
            return next(
                (i for i in self.model_set(db) if not i.satisfies(query)),
                None,
            )
        encoded = Not(encode_degree(query, at_least_half=False))
        return next(self._iter_partial_stable(db, encoded), None)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        if db.is_positive:
            # Table 1: O(1) — a positive database has minimal models,
            # which (being total stable models) are partial stable.
            return True
        if self.engine == "brute":
            return bool(self.model_set(db))
        for _model in self._iter_partial_stable(db):
            return True
        return False
