"""The tables' tractability separation as growth curves.

The paper's point is *where* each cell sits between P and Π₂ᵖ.  These
benchmarks scale one structured family — ``x_i | y_i`` exclusive pairs,
whose minimal-model count doubles with every pair — across sizes, so the
growth *shape* of each cell becomes visible in the timing report:

* DDR negative-literal inference (P cell): flat polynomial growth, zero
  oracle calls at every size;
* DDR formula inference (coNP cell): one oracle call at every size;
* EGCWA formula inference (Π₂ᵖ cell): oracle calls grow with the
  candidate space;
* GCWA formula inference (Θ cell): Σ₂ᵖ calls stay logarithmic while the
  naive algorithm's grow linearly.

Run with::

    pytest benchmarks/bench_separation.py --benchmark-only
"""

import pytest

from repro.complexity.machines import linear_inference, theta_inference
from repro.logic.parser import parse_formula
from repro.obs.accounting import observe
from repro.semantics import get_semantics
from repro.workloads import disjunctive_chain, exclusive_pairs

SIZES = [2, 4, 6]


@pytest.mark.parametrize("size", SIZES)
def test_p_cell_ddr_literal(benchmark, size):
    db = exclusive_pairs(size)
    semantics = get_semantics("ddr")
    with observe() as window:
        semantics.infers_literal(db, "not x1")
    assert window.np_calls == 0
    benchmark(semantics.infers_literal, db, "not x1")


@pytest.mark.parametrize("size", SIZES)
def test_conp_cell_ddr_formula(benchmark, size):
    db = exclusive_pairs(size)
    semantics = get_semantics("ddr")
    formula = parse_formula("x1 | y1")
    with observe() as window:
        semantics.infers(db, formula)
    assert window.np_calls == 1
    benchmark(semantics.infers, db, formula)


@pytest.mark.parametrize("size", SIZES)
def test_pi2_cell_egcwa_formula(benchmark, size):
    db = exclusive_pairs(size)
    semantics = get_semantics("egcwa")
    formula = parse_formula("~x1 | ~y1")
    assert semantics.infers(db, formula)
    benchmark(semantics.infers, db, formula)


@pytest.mark.parametrize("size", SIZES)
def test_theta_cell_oracle_calls_stay_logarithmic(benchmark, size):
    db = exclusive_pairs(size)
    formula = parse_formula("x1 | y1")
    result = theta_inference(db, formula)
    naive = linear_inference(db, formula)
    assert result.inferred == naive.inferred
    assert result.sigma2_calls <= result.call_bound
    assert naive.sigma2_calls == 2 * size  # |P| queries
    benchmark(lambda: theta_inference(db, formula))


@pytest.mark.parametrize("size", SIZES)
def test_sigma2_cell_dsm_existence(benchmark, size):
    db = disjunctive_chain(size)
    semantics = get_semantics("dsm")
    assert semantics.has_model(db)
    benchmark(semantics.has_model, db)
