"""Oracle-machine upper-bound algorithms.

The showpiece is :func:`theta_inference` — the paper's
``P^{Σ₂ᵖ}[O(log n)]`` algorithm for formula inference under GCWA and CCWA
(Tables 1 and 2; the method is credited to [7]).  Sketch, for CCWA with
partition ``(P; Q; Z)``:

1.  Let ``S* = {x ∈ P : x true in some (P;Z)-minimal model}`` (the
    complement of the atoms the closure negates).  The predicate
    ``Q(k) ≡ |S*| ≥ k`` is a Σ₂ᵖ query: guess ``k`` distinct atoms and a
    minimal-model witness for each; a single query suffices because ``k``
    disjoint renamed copies of DB have, as their ``(P;Z)``-minimal
    models, exactly the products of per-copy minimal models.
2.  Binary-search ``k* = |S*|`` with ``O(log |P|)`` queries (``Q`` is
    monotone).
3.  One final Σ₂ᵖ query asks for witnesses of ``k*`` distinct atoms
    ``S`` — necessarily ``S = S*`` — *plus* a model ``N`` of
    ``DB ∪ {¬x : x ∈ P∖S}`` with ``N |= ¬F``.  The formula is inferred
    iff that query fails.

Total: ``⌈log₂(|P|+1)⌉ + 1`` Σ₂ᵖ-oracle calls, each of polynomial size —
the executable content of the ``P^{Σ₂ᵖ}[O(log n)]`` membership claim.
GCWA is the special case ``Q = Z = ∅``.

:func:`linear_inference` is the naive ``|P|+1``-query variant, kept as an
ablation baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..logic.atoms import Literal
from ..logic.clause import Clause
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Implies, Not, Var, conj, disj
from ..logic.transform import rename_atoms
from ..obs.accounting import (
    note_sigma2_dispatch as _note_sigma2_dispatch,
    observe,
    sigma2_dispatch as _sigma2_dispatch,
)
from ..runtime.budget import check_deadline
from .oracles import Sigma2Oracle


def _copy_name(atom: str, index: int) -> str:
    return f"{atom}__c{index}"


def _sel_name(atom: str, index: int) -> str:
    return f"__sel_{index}__{atom}"


@dataclass
class ThetaResult:
    """Outcome of the Θ-style inference algorithm.

    Attributes:
        inferred: the verdict ``DB |=_CCWA F``.
        witness_count: ``k* = |S*|``.
        sigma2_calls: Σ₂ᵖ-oracle calls spent (the O(log n) bound).
        call_bound: the theoretical bound ``ceil(log2(|P|+1)) + 1``.
    """

    inferred: bool
    witness_count: int
    sigma2_calls: int
    call_bound: int


def _copied_database(
    db: DisjunctiveDatabase, count: int
) -> Tuple[DisjunctiveDatabase, List[dict]]:
    """``count`` disjoint renamed copies of ``db`` as one database,
    together with the per-copy renaming maps."""
    renamings = [
        {a: _copy_name(a, i) for a in db.vocabulary} for i in range(1, count + 1)
    ]
    union_clauses: List[Clause] = []
    union_vocab: set = set()
    for renaming in renamings:
        copy = rename_atoms(db, renaming)
        union_clauses.extend(copy.clauses)
        union_vocab.update(copy.vocabulary)
    return DisjunctiveDatabase(union_clauses, union_vocab), renamings


def _distinct_witness_condition(
    p_atoms: List[str], count: int
) -> Formula:
    """``count`` selector blocks choosing distinct atoms of ``P``, each
    forced true in its own copy."""
    parts: List[Formula] = []
    for i in range(1, count + 1):
        selectors = [Var(_sel_name(a, i)) for a in p_atoms]
        parts.append(disj(selectors))  # at least one choice per block
        for a in p_atoms:
            parts.append(
                Implies(Var(_sel_name(a, i)), Var(_copy_name(a, i)))
            )
    # All-different across blocks.
    for a in p_atoms:
        for i in range(1, count + 1):
            for j in range(i + 1, count + 1):
                parts.append(
                    Not(Var(_sel_name(a, i)) & Var(_sel_name(a, j)))
                )
    return conj(parts)


def _block_cone(
    searcher,
    renaming: dict,
    witness: FrozenSet[str],
    p: FrozenSet[str],
    q: FrozenSet[str],
    fresh: List[int],
) -> None:
    """Exclude, in one copy's coordinates, every model that the witness
    proves non-minimal: same ``Q`` part, ``P`` part a *strict* superset of
    the witness's.  (The witness itself stays admissible.)

    Encoded with one auxiliary "equals the witness exactly" atom ``e``:
    ``disagree-on-Q ∨ drop-some-witness-P-atom ∨ e`` plus ``e →`` the
    exact witness ``P`` pattern.
    """
    from ..logic.atoms import Literal

    fresh[0] += 1
    equals = Literal.pos(f"__cone{fresh[0]}")
    clause = [equals]
    for atom in sorted(q):
        copy_atom = renaming[atom]
        clause.append(
            Literal.neg(copy_atom)
            if atom in witness
            else Literal.pos(copy_atom)
        )
    for atom in sorted(p & witness):
        clause.append(Literal.neg(renaming[atom]))
    searcher.add_clause(clause)
    for atom in sorted(p):
        copy_atom = renaming[atom]
        if atom in witness:
            searcher.add_clause([-equals, Literal.pos(copy_atom)])
        else:
            searcher.add_clause([-equals, Literal.neg(copy_atom)])


def _solve_union_query(
    oracle: Sigma2Oracle,
    db: DisjunctiveDatabase,
    p: FrozenSet[str],
    z: FrozenSet[str],
    k: int,
    extra_condition: Optional[Formula],
) -> bool:
    """One Σ₂ᵖ-oracle query: ∃ per-copy ``(P;Z)``-minimal models of ``k``
    disjoint renamed copies of ``db``, whose selector blocks choose ``k``
    distinct witnesses, optionally satisfying ``extra_condition``.

    Realized as CEGAR over the NP oracle: candidates come from a SAT
    solver over the copies + condition; each copy is checked for
    ``(P;Z)``-minimality (an NP call); failures refine the abstraction by
    blocking the cone above the discovered smaller model.
    """
    from ..sat.incremental import IncrementalSatSolver
    from ..sat.minimal import PZMinimalModelSolver

    oracle.queries += 1

    # One Σ₂ᵖ dispatch: the inner CEGAR loop only consults the NP oracle
    # (``witness_below`` is a single SAT call), so the dispatch depth
    # stays at one no matter how many refinement rounds run.  The union
    # database is freshly renamed per query, so its solver is built here
    # and never pooled (``solve`` still ticks budgets and faults).
    with _sigma2_dispatch(), observe() as window:
        union, renamings = _copied_database(db, k)
        with IncrementalSatSolver(union).scope() as searcher:
            searcher.add_formula(
                _distinct_witness_condition(sorted(p), k)
            )
            if extra_condition is not None:
                searcher.add_formula(extra_condition)
            q = frozenset(db.vocabulary) - p - z
            checker = PZMinimalModelSolver(db, p, z)
            fresh = [0]
            result = False
            while True:
                # Each CEGAR refinement round re-checks the deadline: a
                # round can add many cones before the next SAT call
                # trips the per-call budget hooks.
                check_deadline()
                if not searcher.solve():
                    break
                model = searcher.model(restrict_to=union.vocabulary)
                refined = False
                for renaming in renamings:
                    part = frozenset(
                        atom for atom, copy_atom in renaming.items()
                        if copy_atom in model
                    )
                    witness = checker.witness_below(part)
                    if witness is not None:
                        _block_cone(
                            searcher, renaming, frozenset(witness),
                            p, q, fresh,
                        )
                        refined = True
                        break
                if not refined:
                    result = True
                    break
    oracle.inner_sat_calls += window.np_calls
    return result


def _query_at_least(
    oracle: Sigma2Oracle,
    db: DisjunctiveDatabase,
    p: FrozenSet[str],
    z: FrozenSet[str],
    k: int,
) -> bool:
    """The Σ₂ᵖ query ``Q(k)``: at least ``k`` atoms of ``P`` are true in
    some ``(P;Z)``-minimal model each (one oracle call)."""
    if k == 0:
        return True
    return _solve_union_query(oracle, db, p, z, k, None)


def _final_query(
    oracle: Sigma2Oracle,
    db: DisjunctiveDatabase,
    formula: Formula,
    p: FrozenSet[str],
    z: FrozenSet[str],
    k_star: int,
) -> bool:
    """The last Σ₂ᵖ query: witnesses for ``S*`` plus a countermodel of the
    augmented theory (copy 0 of the database, as a side condition)."""
    copy0_map = {a: _copy_name(a, 0) for a in db.vocabulary}
    copy0_db = rename_atoms(db, copy0_map)
    copy0_formula = copy0_db.to_formula()
    renamed_negation = Not(
        _rename_formula(formula, copy0_map)
    )
    closure_parts: List[Formula] = []
    for a in sorted(p):
        in_s = disj(
            [Var(_sel_name(a, i)) for i in range(1, k_star + 1)]
        )
        closure_parts.append(Implies(Var(_copy_name(a, 0)), in_s))
    side = conj([copy0_formula, renamed_negation] + closure_parts)

    if k_star == 0:
        return _degenerate_final_query(oracle, side)

    return _solve_union_query(oracle, db, p, z, k_star, side)


def _degenerate_final_query(
    oracle: Sigma2Oracle, side: Formula
) -> bool:
    """The ``k* = 0`` corner of :func:`_final_query`: no witness copies,
    so the query degenerates to plain satisfiability of the side
    condition (still one oracle call, trivially in Σ₂ᵖ).  Kept as its
    own realization site so each function performs exactly one dispatch
    — the static certifier checks nesting per definition (RPR103)."""
    from ..sat.solver import formula_is_satisfiable

    oracle.queries += 1
    _note_sigma2_dispatch()
    with observe() as window:
        answer = formula_is_satisfiable(side)
    oracle.inner_sat_calls += window.np_calls
    return answer


def _rename_formula(formula: Formula, mapping: dict) -> Formula:
    from ..logic.formula import And, Bottom, Iff, Implies as Imp, Or, Top

    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Var):
        return Var(mapping.get(formula.name, formula.name))
    if isinstance(formula, Not):
        return Not(_rename_formula(formula.operand, mapping))
    if isinstance(formula, And):
        return conj([_rename_formula(f, mapping) for f in formula.operands])
    if isinstance(formula, Or):
        return disj([_rename_formula(f, mapping) for f in formula.operands])
    if isinstance(formula, Imp):
        return Imp(
            _rename_formula(formula.antecedent, mapping),
            _rename_formula(formula.consequent, mapping),
        )
    if isinstance(formula, Iff):
        return Iff(
            _rename_formula(formula.left, mapping),
            _rename_formula(formula.right, mapping),
        )
    raise TypeError(f"unknown formula node: {formula!r}")


def theta_inference(
    db: DisjunctiveDatabase,
    formula: Formula,
    p: Optional[Iterable[str]] = None,
    z: Iterable[str] = (),
    oracle: Optional[Sigma2Oracle] = None,
) -> ThetaResult:
    """Formula inference under CCWA (GCWA when ``p`` is the whole
    vocabulary, the default) with ``O(log |P|)`` Σ₂ᵖ-oracle calls.

    Returns a :class:`ThetaResult` whose ``sigma2_calls`` is asserted
    against the logarithmic bound in the tests and benchmarks.
    """
    from ..semantics.base import ground_query

    oracle = oracle or Sigma2Oracle()
    formula = ground_query(db, formula)
    z = frozenset(z)
    p_set = frozenset(db.vocabulary) - z if p is None else frozenset(p)
    q = frozenset(db.vocabulary) - p_set - z
    db.check_partition(p_set, q, z)
    start_queries = oracle.queries

    # Binary search for k* = |S*| (Q is monotone, Q(0) true for free).
    low, high = 0, len(p_set)
    while low < high:
        check_deadline()
        mid = (low + high + 1) // 2
        if _query_at_least(oracle, db, p_set, z, mid):
            low = mid
        else:
            high = mid - 1
    k_star = low

    counterexample = _final_query(oracle, db, formula, p_set, z, k_star)
    calls = oracle.queries - start_queries
    bound = math.ceil(math.log2(len(p_set) + 1)) + 1 if p_set else 1
    return ThetaResult(
        inferred=not counterexample,
        witness_count=k_star,
        sigma2_calls=calls,
        call_bound=bound,
    )


def linear_inference(
    db: DisjunctiveDatabase,
    formula: Formula,
    p: Optional[Iterable[str]] = None,
    z: Iterable[str] = (),
    oracle: Optional[Sigma2Oracle] = None,
) -> ThetaResult:
    """The naive ``|P| + 1``-oracle-call variant (ablation baseline):
    one Σ₂ᵖ query per atom to compute ``S*`` directly, then one classical
    check of the augmented theory."""
    from ..sat.solver import entails_classically
    from ..semantics.base import ground_query
    from ..semantics.gcwa import augmented_database

    oracle = oracle or Sigma2Oracle()
    formula = ground_query(db, formula)
    z = frozenset(z)
    p_set = frozenset(db.vocabulary) - z if p is None else frozenset(p)
    q = frozenset(db.vocabulary) - p_set - z
    db.check_partition(p_set, q, z)
    start_queries = oracle.queries

    surviving = set()
    for atom in sorted(p_set):
        if oracle.query(db, Var(atom), p=p_set, z=z):
            surviving.add(atom)
    augmented = augmented_database(db, frozenset(p_set) - surviving)
    inferred = entails_classically(augmented, formula)
    return ThetaResult(
        inferred=inferred,
        witness_count=len(surviving),
        sigma2_calls=oracle.queries - start_queries,
        call_bound=len(p_set) + 1,
    )
