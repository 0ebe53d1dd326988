"""Ablation benchmarks for the substrate design choices (beyond-paper).

DESIGN.md calls out the load-bearing implementation choices; these
benchmarks quantify them:

* CDCL vs the reference DPLL on a structured UNSAT family (clause
  learning is what keeps the NP oracle usable);
* CEGAR 2QBF vs brute outer enumeration (the Σ₂ᵖ oracle);
* minimal-model computation: shrink loop vs explicit enumeration;
* the Θ oracle machine vs the naive linear-query algorithm;
* Tseitin vs naive distribution CNF conversion.

Run with::

    pytest benchmarks/bench_ablation.py --benchmark-only
"""

import pytest

from repro.complexity.machines import linear_inference, theta_inference
from repro.logic.cnf import database_to_cnf, formula_to_cnf_naive, tseitin
from repro.logic.formula import And, Or, Var
from repro.logic.parser import parse_formula
from repro.qbf.solver import solve_qbf2_brute, solve_qbf2_cegar
from repro.sat.minimal import MinimalModelSolver
from repro.sat.dpll import solve_dpll
from repro.sat.solver import SatSolver
from repro.sat.types import VariableMap
from repro.workloads import (
    exclusive_pairs,
    pigeonhole_cnf_db,
    random_positive_db,
    random_qbf2,
)


# ----------------------------------------------------------------------
# SAT engine: CDCL vs DPLL
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["cdcl", "dpll"])
def test_sat_engine_on_pigeonhole(benchmark, engine):
    db = pigeonhole_cnf_db(5)
    variables = VariableMap()
    clauses = [
        [variables.int_literal(literal) for literal in clause]
        for clause in database_to_cnf(db)
    ]

    def solve_cdcl():
        solver = SatSolver()
        solver.add_database(db)
        return solver.solve()

    def solve_reference():
        return solve_dpll(clauses) is not None

    solve = solve_cdcl if engine == "cdcl" else solve_reference
    assert solve() is False
    benchmark(solve)


# ----------------------------------------------------------------------
# Sigma2 oracle: CEGAR vs brute enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["cegar", "brute"])
def test_qbf_engine(benchmark, engine):
    qbf = random_qbf2(5, 5, num_terms=6, width=3, seed=2)
    solver = solve_qbf2_cegar if engine == "cegar" else solve_qbf2_brute
    reference = solve_qbf2_brute(qbf).valid
    assert solver(qbf).valid == reference
    benchmark(solver, qbf)


# ----------------------------------------------------------------------
# Minimal models: shrink-based enumeration vs model filtering
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["shrink", "filter"])
def test_minimal_model_enumeration(benchmark, strategy):
    db = random_positive_db(7, 9, seed=4)

    def by_shrink():
        return list(MinimalModelSolver(db).iter_minimal_models())

    def by_filter():
        from repro.sat.enumerate import iter_models

        checker = MinimalModelSolver(db)
        return [m for m in iter_models(db) if checker.is_minimal(m)]

    runner = by_shrink if strategy == "shrink" else by_filter
    assert {frozenset(m) for m in by_shrink()} == {
        frozenset(m) for m in by_filter()
    }
    benchmark(runner)


# ----------------------------------------------------------------------
# Theta machine vs linear oracle usage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["theta", "linear"])
def test_gcwa_inference_algorithms(benchmark, algorithm):
    db = exclusive_pairs(4)
    formula = parse_formula("x1 | y1")
    runner = theta_inference if algorithm == "theta" else linear_inference
    assert runner(db, formula).inferred
    benchmark(lambda: runner(db, formula))


# ----------------------------------------------------------------------
# CWA consistency: O(log n) vs linear NP-oracle usage (Section 3.1 remark)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["theta", "linear"])
def test_cwa_consistency_algorithms(benchmark, algorithm):
    from repro.semantics.cwa import (
        cwa_consistent_linear,
        cwa_consistent_theta,
    )

    db = random_positive_db(6, 8, seed=9)
    expected, _ = cwa_consistent_linear(db)
    if algorithm == "theta":
        result = cwa_consistent_theta(db)
        assert result.consistent == expected
        assert result.np_calls <= result.call_bound
        benchmark(cwa_consistent_theta, db)
    else:
        benchmark(cwa_consistent_linear, db)


# ----------------------------------------------------------------------
# Preprocessing: solving reduction instances with/without simplification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preprocess", [True, False])
def test_preprocessing_on_reduction_instances(benchmark, preprocess):
    from repro.complexity.reductions import qbf_to_minimal_entailment
    from repro.logic.cnf import database_to_cnf
    from repro.sat.simplify import simplify_cnf
    from repro.sat.solver import is_satisfiable

    cnf = database_to_cnf(
        qbf_to_minimal_entailment(random_qbf2(3, 3, seed=1)).db
    )

    def solve_plain():
        return is_satisfiable(cnf)

    def solve_simplified():
        result = simplify_cnf(cnf)
        if result.unsatisfiable:
            return False
        return is_satisfiable(list(result.cnf))

    assert solve_plain() == solve_simplified()
    benchmark(solve_simplified if preprocess else solve_plain)


# ----------------------------------------------------------------------
# CNF conversion: Tseitin vs naive distribution
# ----------------------------------------------------------------------
def _blowup_formula(width: int):
    return Or(*[And(Var(f"a{i}"), Var(f"b{i}")) for i in range(width)])


@pytest.mark.parametrize("converter", ["tseitin", "naive"])
def test_cnf_conversion(benchmark, converter):
    formula = _blowup_formula(8)
    if converter == "tseitin":
        benchmark(lambda: tseitin(formula))
    else:
        benchmark(lambda: formula_to_cnf_naive(formula))


# ----------------------------------------------------------------------
# Grounding cost (beyond-paper substrate)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nodes", [4, 8])
def test_grounding_transitive_closure(benchmark, nodes):
    from repro.ground import ground_program

    edges = "\n".join(
        f"e(n{i}, n{i+1})." for i in range(1, nodes)
    )
    program = edges + """
    path(X, Y) :- e(X, Y).
    path(X, Z) :- e(X, Y), path(Y, Z).
    """
    db = ground_program(program)
    assert len(db.vocabulary) >= nodes  # sanity
    benchmark(ground_program, program)
