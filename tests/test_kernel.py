"""Bitset kernel invariants: packing, reference agreement, sweeps, fast paths.

Four families pin the bitset kernel to the paper's definitions:

* **AtomTable round-trip** — hypothesis-quantified pack/unpack bijection
  and the mask-rank = enumeration-rank identity the whole kernel rests
  on;
* **mask vs. frozenset primitives** — clause satisfaction, model
  checking and proper-subset tests agree with the ``Clause`` /
  ``Interpretation`` originals on random databases;
* **kernel vs. reference enumeration** — ``all_models`` /
  ``minimal_models_brute`` / ``pz_minimal_models_brute`` /
  ``prioritized_minimal_models_brute`` produce the *identical sequences*
  (order included) that the definition-literal reference
  (``reference_models.py``) builds, on seeded and hypothesis-drawn
  databases, and ``all_models`` ticks exactly ``2^|V|`` nodes;
* **batched sweeps and the supported fast path** —
  ``free_atoms`` matches the brute ``ff(DB)`` closure with
  exactly |V| Σ₂ᵖ dispatches, the PZ sweep matches brute CCWA free
  atoms, the sweep matches the reference ⊆, ``(P;Z)`` and two-level
  orders and settles unconstrained atoms in O(|V|) NP calls, and the
  tight-stratified ``supported`` plan dispatches to
  ``stratified-perfect`` and agrees with brute.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cost import DEFAULT_PROCEDURE, STRATIFIED_PROCEDURE
from repro.engine.cache import ENGINE_CACHE
from repro.kernel import (
    AtomTable,
    PackedDatabase,
    atom_table_for,
    clause_satisfied,
    is_proper_submask,
    packed_database_for,
    product_or_masks,
    subsets_in_table_order,
)
from repro.logic.atoms import Literal
from repro.logic.formula import Var
from repro.logic.interpretation import Interpretation, all_interpretations
from repro.logic.parser import parse_database
from repro.models.enumeration import (
    all_models,
    minimal_models_brute,
    prioritized_minimal_models_brute,
    pz_minimal_models_brute,
)
from repro.obs.accounting import observe
from repro.runtime.budget import Budget, budget_scope
from repro.sat.minimal import MinimalModelSolver
from repro.semantics import get_semantics
from repro.semantics.gcwa import free_for_negation_brute
from repro.workloads import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
)

import reference_models as reference
from conftest import ATOMS, databases, random_small_db

#: Random subsets of the shared atom pool.
atom_sets = st.lists(st.sampled_from(ATOMS), unique=True).map(frozenset)


# ----------------------------------------------------------------------
# AtomTable: pack/unpack bijection and rank identity
# ----------------------------------------------------------------------
@given(atom_sets, atom_sets)
def test_atom_table_roundtrip(vocabulary, subset):
    table = AtomTable(vocabulary | subset)
    packed = table.pack(subset)
    assert table.unpack(packed) == Interpretation(subset)
    assert list(table.iter_atoms(packed)) == sorted(subset)
    assert packed | table.full_mask == table.full_mask


@given(atom_sets)
def test_mask_value_is_enumeration_rank(vocabulary):
    """Packed-mask numeric order IS ``all_interpretations`` order —
    the identity that makes kernel and reference sequences equal."""
    table = AtomTable(vocabulary)
    ranks = [
        table.pack(interp)
        for interp in all_interpretations(sorted(vocabulary))
    ]
    assert ranks == list(range(1 << len(vocabulary)))


def test_subsets_in_table_order_matches_pure_counter():
    table = AtomTable({"a", "b", "c", "d"})
    free = {"d", "b"}
    got = list(subsets_in_table_order(table, free))
    pure = list(all_interpretations(sorted(free)))
    assert got == pure


# ----------------------------------------------------------------------
# Mask primitives vs. the frozenset originals
# ----------------------------------------------------------------------
@given(databases(max_clauses=4), atom_sets)
def test_packed_clause_satisfaction_matches(db, model_atoms):
    table = AtomTable(db.vocabulary | model_atoms)
    packed = PackedDatabase(db, table)
    interp = Interpretation(model_atoms)
    mask = table.pack(model_atoms)
    for clause, triple in zip(db, packed.clauses):
        assert clause_satisfied(triple, mask) == clause.satisfied_by(
            interp
        ), clause
    assert packed.is_model(mask) == all(
        c.satisfied_by(interp) for c in db
    )


@given(atom_sets, atom_sets)
def test_is_proper_submask_matches_set_order(left, right):
    table = AtomTable(left | right)
    assert is_proper_submask(
        table.pack(left), table.pack(right)
    ) == (left < right)


def test_product_or_masks_is_disjoint_union():
    table = AtomTable({"a", "b", "x", "y"})
    parts = [
        [table.pack(s) for s in ({"a"}, {"b"})],
        [table.pack(s) for s in (set(), {"x", "y"})],
    ]
    got = {frozenset(table.unpack(m)) for m in product_or_masks(parts)}
    assert got == {
        frozenset({"a"}), frozenset({"a", "x", "y"}),
        frozenset({"b"}), frozenset({"b", "x", "y"}),
    }


def test_memoized_accessors_share_one_table():
    db = parse_database("a | b. c :- a.")
    ENGINE_CACHE.clear()
    assert atom_table_for(db) is atom_table_for(db)
    assert packed_database_for(db).table is atom_table_for(db)


# ----------------------------------------------------------------------
# Kernel vs. the definition-literal reference: identical sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_enumerators_agree_across_kernels(seed):
    db = random_small_db(seed)
    assert all_models(db) == reference.all_models(db), seed
    expected = reference.minimal_models(db)
    assert minimal_models_brute(db) == expected, seed
    assert minimal_models_brute(db, decompose=False) == expected, seed


@pytest.mark.parametrize("seed", range(8))
def test_pz_enumerator_agrees_across_kernels(seed):
    db = random_small_db(seed, allow_neg=False, allow_ic=False)
    atoms = sorted(db.vocabulary)
    p, z = atoms[:2], atoms[2:3]
    expected = reference.pz_minimal_models(db, p, z)
    assert pz_minimal_models_brute(db, p, z) == expected, seed
    assert pz_minimal_models_brute(db, p, z, decompose=False) == expected


#: A random block per pool atom: 0 = P (priority level 1), 1 = priority
#: level 2, 2 = Z, 3 = the fixed part Q.
partitions = st.lists(st.sampled_from((0, 1, 2, 3)), min_size=5, max_size=5)


@given(databases(max_clauses=4), partitions)
def test_enumerators_match_reference_property(db, blocks):
    """All four enumerators equal the reference sequences, order
    included, on hypothesis-drawn databases and partitions."""
    part = {
        b: [a for a, k in zip(ATOMS, blocks) if k == b] for b in range(3)
    }
    p, level2, z = part[0], part[1], part[2]
    assert all_models(db) == reference.all_models(db)
    assert minimal_models_brute(db) == reference.minimal_models(db)
    assert pz_minimal_models_brute(db, p, z) == (
        reference.pz_minimal_models(db, p, z)
    )
    levels = [p, level2]
    assert prioritized_minimal_models_brute(db, levels, z) == (
        reference.lex_minimal_models(db, levels, z)
    )


@pytest.mark.parametrize("seed", range(6))
def test_all_models_ticks_one_node_per_interpretation(seed):
    db = random_small_db(seed, atoms=3 + seed % 3)
    with observe() as window:
        all_models(db)
    assert window.nodes == 2 ** len(db.vocabulary)


@pytest.mark.parametrize("seed", range(6))
def test_minimality_pass_ticks_one_node_per_model(seed):
    db = random_small_db(seed)
    with observe() as window:
        minimal_models_brute(db, decompose=False)
    expected = 2 ** len(db.vocabulary) + len(reference.all_models(db))
    assert window.nodes == expected


# ----------------------------------------------------------------------
# Batched sweeps: answers and accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_ff_sweep_matches_brute_closure(seed):
    db = random_small_db(seed, allow_ic=False)
    expected = free_for_negation_brute(db)
    with observe() as window:
        with MinimalModelSolver(db) as engine:
            got = engine.free_atoms()
    assert got == expected, seed
    # One Σ₂ᵖ dispatch per vocabulary atom — the same count the
    # per-atom closure reported, so certifier envelopes are unchanged.
    assert window.as_dict()["sigma2_dispatches"] == len(db.vocabulary)


def test_ff_sweep_np_calls_beat_per_atom_path_in_aggregate():
    """The batched sweep answers identically to the per-atom
    ``find_minimal_satisfying`` loop everywhere, and its aggregate
    NP-call total over a seed corpus is strictly lower (shared blocks
    and learned clauses; individual databases may differ by a few calls
    either way since the two paths can surface different candidate
    models)."""
    sweep_total = loop_total = 0
    for seed in range(20):
        db = random_small_db(seed, allow_ic=False)
        with observe() as sweep_window:
            with MinimalModelSolver(db) as engine:
                swept = engine.free_atoms()
        with observe() as loop_window:
            with MinimalModelSolver(db) as engine:
                looped = frozenset(
                    atom
                    for atom in db.vocabulary
                    if engine.find_minimal_satisfying(Var(atom)) is None
                )
        assert swept == looped, seed
        sweep_total += sweep_window.as_dict()["np_calls"]
        loop_total += loop_window.as_dict()["np_calls"]
    assert sweep_total < loop_total, (sweep_total, loop_total)


@pytest.mark.parametrize("seed", range(8))
def test_pz_sweep_matches_brute_free_atoms(seed):
    db = random_small_db(seed, allow_neg=False, allow_ic=False)
    atoms = sorted(db.vocabulary)
    p, z = atoms[:2], atoms[2:3]
    models = pz_minimal_models_brute(db, p, z)
    expected = frozenset(
        a for a in p if not any(a in m for m in models)
    )
    with observe() as window:
        with MinimalModelSolver(db, [p], z) as solver:
            got = solver.free_atoms()
    assert got == expected, seed
    assert window.as_dict()["sigma2_dispatches"] == len(p)


#: Atoms no clause mentions: each lies in half of all models.
UNCONSTRAINED = [f"x{i}" for i in range(8)]


@pytest.mark.parametrize("text", ["a.", "a | b."])
def test_ff_sweep_is_linear_on_unconstrained_atoms(text, cold_pool):
    """A refuted guess blocks the cone above the minimal model under it,
    not just itself, so an unconstrained atom costs a shrink, not one
    check per model containing it (blocking guesses alone took 520 and
    1,542 NP calls here)."""
    db = parse_database(text).with_vocabulary(UNCONSTRAINED)
    with observe() as window:
        with MinimalModelSolver(db) as engine:
            got = engine.free_atoms()
    counts = window.as_dict()
    assert got == free_for_negation_brute(db)
    assert counts["sigma2_dispatches"] == len(db.vocabulary)
    assert counts["np_calls"] <= 2 * len(db.vocabulary), counts


SWEEP_REGIMES = {
    "positive": random_positive_db,
    "deductive": random_deductive_db,
    "normal": random_normal_db,
}


def _sweep_orders(atoms, seed):
    """``(levels, z)`` for ⊆, ``(P;Z)`` and two priority levels over a
    seeded shuffle of ``atoms``; the last two leave ``Q`` and ``Z``
    non-empty."""
    shuffled = random.Random(seed).sample(sorted(atoms), len(atoms))
    half, quarter = len(shuffled) // 2, max(1, len(shuffled) // 4)
    z = shuffled[half:half + quarter]
    return [
        (None, ()),
        ([shuffled[:half]], z),
        ([shuffled[:quarter], shuffled[quarter:half]], z),
    ]


def _assert_sweep_matches_reference(db, levels, z, max_sat_calls):
    """``free_atoms`` is the set of level-one atoms in no minimal model of
    the reference order, with one Σ₂ᵖ dispatch per level-one atom.  The
    SAT-call budget turns a sweep that stops removing its guess into a
    failure instead of a hang."""
    if levels is None:
        first, models = sorted(db.vocabulary), reference.minimal_models(db)
    elif len(levels) == 1:
        first = levels[0]
        models = reference.pz_minimal_models(db, first, z)
    else:
        first = levels[0]
        models = reference.lex_minimal_models(db, levels, z)
    expected = frozenset(a for a in first if not any(a in m for m in models))
    limit = Budget(max_sat_calls=max_sat_calls)
    with observe() as window, budget_scope(limit):
        with MinimalModelSolver(db, levels, z) as solver:
            got = solver.free_atoms()
    assert got == expected, (levels, z)
    assert window.as_dict()["sigma2_dispatches"] == len(first)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("regime", sorted(SWEEP_REGIMES))
def test_strict_cone_excludes_only_models_above_its_minimal_model(
    regime, seed
):
    """The sweep's blocks are sound for every atom: a model falsifying
    ``cone + [¬b]`` for some level atom ``b`` outside the minimal model
    ``M`` lies strictly above ``M`` in the reference order."""
    db = SWEEP_REGIMES[regime](8, 8, seed=seed)
    for levels, z in _sweep_orders(db.vocabulary, seed):
        order = [frozenset(level) for level in levels or [db.vocabulary]]
        flat = frozenset().union(*order)
        q = frozenset(db.vocabulary) - flat - frozenset(z)
        with MinimalModelSolver(db, levels, z) as solver:
            for minimal in reference.lex_minimal_models(db, order, z):
                cone = solver._cone_clause(minimal)
                for model in reference.all_models(db):
                    blocked = any(
                        not any(
                            (lit.atom in model) == lit.positive
                            for lit in [*cone, Literal.neg(b)]
                        )
                        for b in flat if b not in minimal
                    )
                    if blocked:
                        assert reference.lex_preferred(
                            minimal, model, order, q
                        ), (levels, z, minimal, model)


def test_sweep_blocks_a_guess_outside_the_cone():
    """Under ``a > b``, ``{b}`` lies below ``{a}`` but ``{a}`` keeps none of
    its level atoms: the strict cone above ``{b}`` misses the guess, so
    the guess must be blocked on its own for the sweep to end."""
    db = parse_database("a | b.")
    _assert_sweep_matches_reference(db, [["a"], ["b"]], (), 100)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("regime", sorted(SWEEP_REGIMES))
def test_sweep_matches_reference_in_every_order(regime, n, seed):
    db = SWEEP_REGIMES[regime](n, n, seed=seed)
    for levels, z in _sweep_orders(db.vocabulary, seed):
        _assert_sweep_matches_reference(db, levels, z, 500)


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("regime", sorted(SWEEP_REGIMES))
def test_sweep_matches_reference_where_cones_matter(regime, n):
    """The same comparison at up to 1,024 interpretations, where one
    cone covers hundreds of models."""
    for seed in range(25):
        db = SWEEP_REGIMES[regime](n, n, seed=seed)
        for levels, z in _sweep_orders(db.vocabulary, seed):
            _assert_sweep_matches_reference(db, levels, z, 2_000)


# ----------------------------------------------------------------------
# Supported-semantics fast path
# ----------------------------------------------------------------------
TIGHT_DBS = (
    "win1 :- not win2. win2 :- not win3. win3.",
    "a. b :- a. c :- b, not d.",
    "p1. p2 :- p1. p3 :- p2.",
)


@pytest.mark.parametrize("text", TIGHT_DBS)
def test_supported_fast_path_differential(text):
    """Tight stratified normal databases: the planner dispatches
    ``supported`` to the stratified-perfect procedure (Fages: tight ⇒
    supported = stable = perfect) and agrees with brute and oracle."""
    db = parse_database(text)
    planned = get_semantics("supported", engine="planned")
    plan = planned.plan_for(db, "model_set")
    assert plan.procedure == STRATIFIED_PROCEDURE, text
    brute = get_semantics("supported", engine="brute")
    oracle = get_semantics("supported", engine="oracle")
    assert (
        planned.model_set(db)
        == brute.model_set(db)
        == oracle.model_set(db)
    )
    literal = Literal.pos(sorted(db.vocabulary)[0])
    assert (
        planned.infers_literal(db, literal)
        == brute.infers_literal(db, literal)
    )


def test_supported_fast_path_excludes_self_loop():
    """``a :- a.`` is stratified but not tight: supported models
    ({} and {a}) differ from the perfect model ({}), so the gate must
    keep it on the default procedure."""
    db = parse_database("a :- a.")
    planned = get_semantics("supported", engine="planned")
    assert planned.plan_for(db, "model_set").procedure == (
        DEFAULT_PROCEDURE
    )
    brute = get_semantics("supported", engine="brute")
    assert planned.model_set(db) == brute.model_set(db)
    assert len(brute.model_set(db)) == 2
