"""A tour of the paper's complexity landscape, made executable.

The paper's Tables 1 and 2 classify inference under the disjunctive
semantics between P and Π₂ᵖ.  This script makes the classification
tangible:

1. a *tractable* cell — DDR literal inference runs with **zero** oracle
   calls;
2. a *coNP* cell — DDR formula inference is one SAT call;
3. a *Π₂ᵖ* cell — EGCWA inference spends candidate + minimality-check
   oracle calls;
4. the *P^{Σ₂ᵖ}[O(log n)]* cell — GCWA formula inference with the
   binary-search oracle machine, versus the naive linear one;
5. a *hardness reduction* — a 2QBF instance turned into a database on
   which GCWA literal inference answers QBF validity.

Run with::

    python examples/complexity_tour.py
"""

from repro import parse_formula
from repro.complexity import Sigma2Oracle, linear_inference, theta_inference
from repro.complexity.reductions import qbf_to_minimal_entailment
from repro.obs import observe
from repro.qbf import dnf_formula, exists_forall, solve_qbf2_cegar
from repro.semantics import get_semantics
from repro.workloads import exclusive_pairs


def main() -> None:
    db = exclusive_pairs(4)  # x_i | y_i for i = 1..4: 16 minimal models
    print("Workload: exclusive pairs,", len(db.vocabulary), "atoms,",
          len(db), "clauses")
    print()

    # 1. Tractable: DDR literal inference (Table 1: in P).
    ddr = get_semantics("ddr")
    with observe() as window:
        answer = ddr.infers_literal(db, "not x1")
    print(f"1. DDR |= not x1?  {answer}  "
          f"(NP-oracle calls: {window.np_calls} — pure fixpoint)")

    # 2. coNP: DDR formula inference is a single UNSAT call.
    with observe() as window:
        answer = ddr.infers(db, parse_formula("x1 | y1"))
    print(f"2. DDR |= x1 | y1?  {answer}  "
          f"(NP-oracle calls: {window.np_calls})")

    # 3. Pi2p: EGCWA inference needs minimality checks.
    egcwa = get_semantics("egcwa")
    with observe() as window:
        answer = egcwa.infers(db, parse_formula("~x1 | ~y1"))
    print(f"3. EGCWA |= ~x1 | ~y1?  {answer}  "
          f"(NP-oracle calls: {window.np_calls} — guess + check)")

    # 4. Theta: O(log n) Sigma2-oracle calls vs the linear algorithm.
    formula = parse_formula("x1 | y1")
    theta = theta_inference(db, formula, oracle=Sigma2Oracle())
    linear = linear_inference(db, formula, oracle=Sigma2Oracle())
    print(f"4. GCWA |= x1 | y1?  {theta.inferred}")
    print(f"   binary-search machine: {theta.sigma2_calls} Σ2 calls "
          f"(bound {theta.call_bound});  naive: {linear.sigma2_calls}")

    # 5. Hardness: QBF validity via GCWA literal inference.
    qbf = exists_forall(
        ["x"], ["y"],
        dnf_formula([(("x", "y"), ()), (("x",), ("y",))]),
    )
    print(f"5. QBF: {qbf}")
    print("   valid (CEGAR 2QBF solver):", solve_qbf2_cegar(qbf).valid)
    instance = qbf_to_minimal_entailment(qbf)
    gcwa = get_semantics("gcwa")
    inferred = gcwa.infers_literal(instance.db, instance.query_literal)
    print(f"   reduced database has {len(instance.db)} clauses; "
          f"GCWA |= {instance.query_literal}: {inferred}")
    print("   (validity <=> the literal is NOT inferred:",
          (not inferred) == solve_qbf2_cegar(qbf).valid, ")")


if __name__ == "__main__":
    main()
