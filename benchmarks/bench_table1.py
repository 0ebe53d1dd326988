"""Benchmarks regenerating Table 1 (positive propositional DDBs).

One benchmark per (semantics row, task column).  Every benchmark times
the oracle-backed decision procedure of that cell on a fixed positive
workload, and asserts — outside the timed region — that the answer
matches the brute-force ground truth and that the oracle usage matches
the claimed class (0 SAT calls for the P/O(1) cells, the logarithmic
Σ₂ᵖ-call bound for the Θ cells).

Run with::

    pytest benchmarks/bench_table1.py --benchmark-only
"""

import time

import pytest

from repro.complexity.machines import theta_inference
from repro.engine import parallel_map
from repro.engine.cache import ENGINE_CACHE
from repro.logic.atoms import Literal
from repro.obs.accounting import observe
from repro.semantics import get_semantics
from repro.workloads import random_positive_db, random_query_formula

ROWS = ["gcwa", "ddr", "pws", "egcwa", "ccwa", "ecwa", "icwa", "perf",
        "dsm", "pdsm"]

ATOMS = 6
CLAUSES = 7


def _workload(seed=0):
    return random_positive_db(ATOMS, CLAUSES, seed=seed)


def _query(db, seed=0):
    return random_query_formula(sorted(db.vocabulary), depth=2, seed=seed)


@pytest.mark.parametrize("row", ROWS)
def test_literal_inference(benchmark, row):
    """Table 1, column 'inference of literal'."""
    db = _workload()
    literal = Literal.neg(sorted(db.vocabulary)[0])
    semantics = get_semantics(row)
    expected = get_semantics(row, engine="brute").infers_literal(
        db, literal
    )
    result = benchmark(semantics.infers_literal, db, literal)
    assert result == expected


@pytest.mark.parametrize("row", ROWS)
def test_formula_inference(benchmark, row):
    """Table 1, column 'inference of formula'."""
    db = _workload()
    formula = _query(db)
    expected = get_semantics(row, engine="brute").infers(db, formula)
    if row in ("gcwa", "ccwa"):
        # The P^{Σ2p}[O(log n)] cell: run the oracle machine and check
        # the logarithmic call bound.
        result = benchmark(lambda: theta_inference(db, formula))
        assert result.inferred == expected
        assert result.sigma2_calls <= result.call_bound
    else:
        semantics = get_semantics(row)
        result = benchmark(semantics.infers, db, formula)
        assert result == expected


@pytest.mark.parametrize("row", ROWS)
def test_model_existence(benchmark, row):
    """Table 1, column 'exists model' — all O(1) for positive DDBs."""
    db = _workload()
    semantics = get_semantics(row)
    with observe() as window:
        answer = semantics.has_model(db)
    assert answer is True
    assert window.np_calls == 0, "O(1) cell must not call the oracle"
    benchmark(semantics.has_model, db)


@pytest.mark.parametrize("row", ["ddr", "pws"])
def test_tractable_literal_cells_use_no_oracle(benchmark, row):
    """The paper's only tractable cells (Chan): negative-literal
    inference for DDR/PWS without ICs is a polynomial fixpoint."""
    db = _workload()
    semantics = get_semantics(row)
    literal = "not " + sorted(db.vocabulary)[0]
    with observe() as window:
        semantics.infers_literal(db, literal)
    assert window.np_calls == 0
    benchmark(semantics.infers_literal, db, literal)


# ----------------------------------------------------------------------
# Memoizing engine: repeated-suite speedup and parallel fan-out.
# ----------------------------------------------------------------------
SUITE_SEEDS = range(6)


def table1_suite():
    """The Table 1 workloads one full regeneration quantifies over."""
    return [
        (_workload(seed), _query(_workload(seed), seed=seed))
        for seed in SUITE_SEEDS
    ]


def _run_suite_pass(suite) -> float:
    """One full pass of every (row, task) cell through the cached
    engine; returns the wall-clock seconds spent."""
    start = time.perf_counter()
    for db, query in suite:
        literal = Literal.neg(sorted(db.vocabulary)[0])
        for row in ROWS:
            semantics = get_semantics(row, engine="cached")
            semantics.has_model(db)
            semantics.infers_literal(db, literal)
            semantics.infers(db, query)
    return time.perf_counter() - start


def test_cached_repeated_suite_speedup(capsys):
    """Regenerating the suite a second time is answered from the cache:
    the warm pass must be at least 2x faster than the cold pass, and the
    hit counters must account for every warm lookup."""
    ENGINE_CACHE.clear()
    suite = table1_suite()
    cold = _run_suite_pass(suite)
    hits_after_cold = ENGINE_CACHE.stats()["hits"]
    warm = _run_suite_pass(suite)
    stats = ENGINE_CACHE.stats()
    warm_hits = stats["hits"] - hits_after_cold
    lookups_per_pass = len(suite) * len(ROWS) * 3
    with capsys.disabled():
        print(
            f"\n[table1 cached suite] cold={cold:.3f}s warm={warm:.3f}s "
            f"speedup={cold / warm:.1f}x warm_hits={warm_hits} "
            f"(hit rate {stats['hit_rate']:.1%})"
        )
    assert warm * 2 <= cold, (cold, warm)
    assert warm_hits == lookups_per_pass


def _build_workload(seed: int):
    """Module-level suite builder (picklable for the process pool)."""
    return random_positive_db(ATOMS, CLAUSES, seed=seed)


def test_parallel_suite_fanout_matches_serial():
    """Fanning the suite construction out over the process pool yields
    exactly the serial suite, in order."""
    seeds = list(SUITE_SEEDS)
    serial = [_build_workload(seed) for seed in seeds]
    fanned = parallel_map(_build_workload, seeds, max_workers=2)
    assert fanned == serial
