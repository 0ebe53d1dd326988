"""Benchmarks regenerating Table 2 (DDBs with integrity clauses).

Workloads per row follow the regime the row quantifies over: deductive
databases with integrity clauses for the closure semantics, stratified
databases for ICWA, normal databases (with negation) for PERF/DSM/PDSM.

Run with::

    pytest benchmarks/bench_table2.py --benchmark-only
"""

import time

import pytest

from repro.complexity.machines import theta_inference
from repro.engine.cache import ENGINE_CACHE
from repro.logic.atoms import Literal
from repro.obs.accounting import observe
from repro.semantics import get_semantics
from repro.workloads import (
    random_deductive_db,
    random_normal_db,
    random_query_formula,
    random_stratified_db,
)

ROWS = ["gcwa", "ddr", "pws", "egcwa", "ccwa", "ecwa", "icwa", "perf",
        "dsm", "pdsm"]

ATOMS = 5
CLAUSES = 6


def _workload(row, seed=0):
    if row == "icwa":
        return random_stratified_db(ATOMS, CLAUSES, seed=seed)
    if row == "perf":
        return random_normal_db(
            ATOMS, CLAUSES, neg_fraction=0.4, ic_fraction=0.0, seed=seed
        )
    if row in ("dsm", "pdsm"):
        return random_normal_db(
            ATOMS, CLAUSES, neg_fraction=0.4, ic_fraction=0.15, seed=seed
        )
    return random_deductive_db(ATOMS, CLAUSES, seed=seed)


def _query(db, seed=0):
    return random_query_formula(sorted(db.vocabulary), depth=2, seed=seed)


@pytest.mark.parametrize("row", ROWS)
def test_literal_inference(benchmark, row):
    """Table 2, column 'inference of literal'."""
    db = _workload(row)
    literal = Literal.neg(sorted(db.vocabulary)[0])
    semantics = get_semantics(row)
    expected = get_semantics(row, engine="brute").infers_literal(
        db, literal
    )
    result = benchmark(semantics.infers_literal, db, literal)
    assert result == expected


@pytest.mark.parametrize("row", ROWS)
def test_formula_inference(benchmark, row):
    """Table 2, column 'inference of formula'."""
    db = _workload(row)
    formula = _query(db)
    expected = get_semantics(row, engine="brute").infers(db, formula)
    if row in ("gcwa", "ccwa"):
        result = benchmark(lambda: theta_inference(db, formula))
        assert result.inferred == expected
        assert result.sigma2_calls <= result.call_bound
    else:
        result = benchmark(get_semantics(row).infers, db, formula)
        assert result == expected


@pytest.mark.parametrize("row", ROWS)
def test_model_existence(benchmark, row):
    """Table 2, column 'exists model': NP cells are one SAT call; the
    ICWA cell stays O(1); the Σ₂ᵖ cells (PERF/DSM/PDSM) guess-and-check."""
    db = _workload(row)
    semantics = get_semantics(row)
    expected = get_semantics(row, engine="brute").has_model(db)
    with observe() as window:
        answer = semantics.has_model(db)
    assert answer == expected
    if row == "icwa":
        assert window.np_calls == 0, "ICWA existence is O(1) given strata"
    elif row in ("gcwa", "egcwa", "ccwa", "ecwa", "circ", "ddr", "pws"):
        assert window.np_calls <= 1, "NP cell must be a single oracle call"
    benchmark(semantics.has_model, db)


def test_ddr_literal_needs_oracle_with_ics(benchmark):
    """The Table 1 -> Table 2 jump for DDR literal inference: with
    integrity clauses the fixpoint no longer suffices (coNP cell)."""
    db = random_deductive_db(ATOMS, CLAUSES, ic_fraction=0.5, seed=1)
    semantics = get_semantics("ddr")
    literal = "not " + sorted(db.vocabulary)[0]
    with observe() as window:
        semantics.infers_literal(db, literal)
    assert window.np_calls >= 1
    benchmark(semantics.infers_literal, db, literal)


# ----------------------------------------------------------------------
# Memoizing engine: repeated-suite speedup on the Table 2 regimes.
# ----------------------------------------------------------------------
SUITE_SEEDS = range(4)


def table2_suite():
    """(row, db, query) triples — each row on its own regime's workload."""
    return [
        (row, _workload(row, seed=seed),
         _query(_workload(row, seed=seed), seed=seed))
        for row in ROWS
        for seed in SUITE_SEEDS
    ]


def _run_suite_pass(suite) -> float:
    start = time.perf_counter()
    for row, db, query in suite:
        semantics = get_semantics(row, engine="cached")
        semantics.has_model(db)
        semantics.infers_literal(db, Literal.neg(sorted(db.vocabulary)[0]))
        semantics.infers(db, query)
    return time.perf_counter() - start


def test_cached_repeated_suite_speedup(capsys):
    """The warm regeneration of the Table 2 suite must be >= 2x faster
    than the cold one, with the hit counters accounting for every warm
    lookup."""
    ENGINE_CACHE.clear()
    suite = table2_suite()
    cold = _run_suite_pass(suite)
    hits_after_cold = ENGINE_CACHE.stats()["hits"]
    warm = _run_suite_pass(suite)
    stats = ENGINE_CACHE.stats()
    warm_hits = stats["hits"] - hits_after_cold
    with capsys.disabled():
        print(
            f"\n[table2 cached suite] cold={cold:.3f}s warm={warm:.3f}s "
            f"speedup={cold / warm:.1f}x warm_hits={warm_hits} "
            f"(hit rate {stats['hit_rate']:.1%})"
        )
    assert warm * 2 <= cold, (cold, warm)
    assert warm_hits == len(suite) * 3
