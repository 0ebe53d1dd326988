"""Differential test harness: planned vs. cached vs. oracle vs. brute.

Seeded random databases from :mod:`repro.workloads.random_db`, one batch
per syntactic regime, are cross-checked across every registered paper
semantics applicable to that regime: the memoizing ``cached`` engine,
the pooled incremental ``oracle`` decision procedures, the
fragment-dispatching ``planned`` engine (Horn unit propagation /
head-cycle-free foundedness fast paths where the profile allows, oracle
fallback elsewhere), and the ``brute`` ground-truth enumerator must
agree on ``model_set``, ``infers`` (on a seeded random query formula),
``infers_literal`` (both polarities) and ``has_model``.  Every database
is checked a second time with the oracle engine on a solver pool of
``maxsize`` 0 (the ``cold_pool`` fixture), which pins the solver-reuse
layer (selector retraction, clause reclamation, recycling) to cold
solvers on the whole corpus.

The generators are deterministic given a seed (see
``test_random_db_determinism.py``), so any disagreement reproduces
byte-identically from the failing parameter id.  The harness quantifies
over more than 200 databases in total (asserted by
``test_coverage_floor``).
"""

from __future__ import annotations

import pytest

from repro.adversary import DEFAULT_CORPUS_PATH, applicable_semantics
from repro.adversary.corpus import corpus_databases
from repro.engine import DIFFERENTIAL_ENGINES, differential_stack
from repro.engine.cache import ENGINE_CACHE
from repro.logic.atoms import Literal
from repro.semantics import get_semantics
from repro.workloads import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
    random_query_formula,
    random_stratified_db,
)

#: How many seeded databases each regime contributes.
COUNTS = {
    "positive": 60,
    "deductive": 60,
    "stratified": 50,
    "normal": 50,
}

#: Which registered semantics are defined on which regime.  ``ddr`` and
#: ``pws`` reject negation, ``perf`` rejects integrity clauses, and
#: ``icwa`` requires a stratification (normal databases may lack one).
SEMANTICS_FOR = {
    "positive": [
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "ddr", "pws", "perf",
        "icwa", "dsm", "pdsm",
    ],
    "deductive": [
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "ddr", "pws", "icwa",
        "dsm", "pdsm",
    ],
    "stratified": [
        "gcwa", "ccwa", "egcwa", "ecwa", "circ", "perf", "icwa", "dsm",
        "pdsm",
    ],
    "normal": ["gcwa", "ccwa", "egcwa", "ecwa", "circ", "dsm", "pdsm"],
}


def build_db(regime: str, seed: int):
    """The ``seed``-th database of a regime (small enough for brute)."""
    if regime == "positive":
        return random_positive_db(4, 4, seed=seed)
    if regime == "deductive":
        return random_deductive_db(4, 5, seed=seed)
    if regime == "stratified":
        return random_stratified_db(4, 5, seed=seed)
    if regime == "normal":
        return random_normal_db(4, 5, ic_fraction=0.15, seed=seed)
    raise ValueError(regime)


def check_agreement(
    db, names, query_seed: int = 0, engines=DIFFERENTIAL_ENGINES
) -> None:
    """Assert that every engine agrees with brute on every decision
    problem.

    ``engines`` lists the stack, brute first (default: the full
    differential stack).  ``planned`` pins the fragment fast paths (Horn
    least model, head-cycle-free foundedness) to the brute ground truth
    on every database whose profile triggers them.
    """
    query = random_query_formula(
        sorted(db.vocabulary), depth=2, seed=query_seed
    )
    some_atom = sorted(db.vocabulary)[0]
    literals = [Literal.pos(some_atom), Literal.neg(some_atom)]
    for name in names:
        brute, *others = differential_stack(name, engines)
        expected_models = brute.model_set(db)
        expected_infers = brute.infers(db, query)
        expected_literal = {
            literal: brute.infers_literal(db, literal)
            for literal in literals
        }
        expected_has_model = brute.has_model(db)
        for other in others:
            tag = (name, other.engine)
            assert other.model_set(db) == expected_models, (
                tag, "model_set",
            )
            assert other.infers(db, query) == expected_infers, (
                tag, "infers",
            )
            for literal in literals:
                assert (
                    other.infers_literal(db, literal)
                    == expected_literal[literal]
                ), (tag, "infers_literal", literal)
            assert other.has_model(db) == expected_has_model, (
                tag, "has_model",
            )


# ----------------------------------------------------------------------
# One test per (regime, seed): the failing database is the parameter id.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(COUNTS["positive"]))
def test_differential_positive(seed):
    db = build_db("positive", seed)
    check_agreement(db, SEMANTICS_FOR["positive"], query_seed=seed)


@pytest.mark.parametrize("seed", range(COUNTS["deductive"]))
def test_differential_deductive(seed):
    db = build_db("deductive", seed)
    check_agreement(db, SEMANTICS_FOR["deductive"], query_seed=seed)


@pytest.mark.parametrize("seed", range(COUNTS["stratified"]))
def test_differential_stratified(seed):
    db = build_db("stratified", seed)
    check_agreement(db, SEMANTICS_FOR["stratified"], query_seed=seed)


@pytest.mark.parametrize("seed", range(COUNTS["normal"]))
def test_differential_normal(seed):
    db = build_db("normal", seed)
    check_agreement(db, SEMANTICS_FOR["normal"], query_seed=seed)


#: The oracle engine against brute, run under ``cold_pool``.
COLD_ENGINES = ("brute", "oracle")


@pytest.mark.parametrize(
    "regime,seed",
    [(regime, seed) for regime in COUNTS for seed in range(COUNTS[regime])],
)
def test_differential_cold_pool(regime, seed, cold_pool):
    db = build_db(regime, seed)
    check_agreement(
        db, SEMANTICS_FOR[regime], query_seed=seed, engines=COLD_ENGINES
    )


# ----------------------------------------------------------------------
# The adversarial regression corpus: every witness the hunter ever
# minimized and folded in (tests/data/adversarial_corpus.json) is
# replayed across the full stack, so a bug class found once stays found.
# ----------------------------------------------------------------------
import os

_CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "adversarial_corpus.json"
)
_CORPUS = corpus_databases(_CORPUS_PATH)


def _corpus_semantics(db):
    names = [n for n in applicable_semantics(db) if n != "pdsm"]
    if len(db.vocabulary) <= 5:
        names = list(applicable_semantics(db))
    return names


@pytest.mark.parametrize(
    "db", [c[1] for c in _CORPUS], ids=[c[0] for c in _CORPUS]
)
def test_differential_adversarial_corpus(db):
    check_agreement(db, _corpus_semantics(db), query_seed=0)


@pytest.mark.parametrize(
    "db", [c[1] for c in _CORPUS], ids=[c[0] for c in _CORPUS]
)
def test_differential_adversarial_corpus_cold_pool(db, cold_pool):
    check_agreement(
        db, _corpus_semantics(db), query_seed=0, engines=COLD_ENGINES
    )


def test_corpus_default_path_matches():
    """The checked-in corpus is where the hunter folds survivors to."""
    assert DEFAULT_CORPUS_PATH.endswith(
        os.path.join("tests", "data", "adversarial_corpus.json")
    )


# ----------------------------------------------------------------------
# Planner calibration: predicted vs. actual NP calls on cold queries
# ----------------------------------------------------------------------
# The documented calibration contract for the cost model
# (src/repro/analysis/cost.py), measured on this 220-DB corpus:
#
# * core band  [0.25x, 4x]:  holds for >= 97% of cold planned queries
#   per regime (empirically >= 98.8%; the misses are a handful of
#   stratified databases whose oracle search backtracks harder than the
#   static profile predicts),
# * hard band  [0.1x, 10x]:  holds for *every* probe,
#
# where the ratio is (actual_np + 1) / (predicted_np + 1) — the same
# quantity the `repro_planner_np_ratio` histogram buckets.  Scope:
# formula inference, literal inference (the negative polarity — CCWA
# positive literals route through the full closure and are documented
# off-band in CostModel.default_estimate), and model existence for
# non-circumscriptive semantics (circ has_model and model_set are
# enumerative order-of-magnitude estimates, documented outside the
# band).  Every probed answer is simultaneously cross-checked against
# the oracle engine.
CALIBRATION_CORE_BAND = (0.25, 4.0)
CALIBRATION_HARD_BAND = (0.1, 10.0)
CALIBRATION_CORE_FLOOR = 0.97

#: Calibration skips semantics whose regime list excludes them plus the
#: documented off-band probes (see the banner comment above).
CALIBRATION_SEMANTICS = {
    regime: [n for n in names if n not in ("ddr", "pws", "pdsm")]
    for regime, names in SEMANTICS_FOR.items()
}


def _calibration_probes(db, name, query):
    negative = Literal.neg(sorted(db.vocabulary)[0])
    probes = [("infers", (query,)), ("infers_literal", (negative,))]
    if name != "circ":
        probes.append(("has_model", ()))
    return probes


@pytest.mark.parametrize("regime", sorted(COUNTS))
def test_planner_calibration(regime):
    from repro.obs.accounting import observe
    from repro.sat import clear_solver_pool

    in_band = 0
    total = 0
    misses = []
    for seed in range(COUNTS[regime]):
        db = build_db(regime, seed)
        query = random_query_formula(
            sorted(db.vocabulary), depth=2, seed=seed
        )
        for name in CALIBRATION_SEMANTICS[regime]:
            planned = get_semantics(name, engine="planned")
            oracle = get_semantics(name, engine="oracle")
            for method, args in _calibration_probes(db, name, query):
                # Cold start: every probe re-plans and re-solves, so
                # the observation prices the procedure, not the cache.
                ENGINE_CACHE.clear()
                clear_solver_pool()
                plan = planned.plan_for(db, method)
                with observe() as observation:
                    answer = getattr(planned, method)(db, *args)
                assert answer == getattr(oracle, method)(db, *args), (
                    regime, seed, name, method,
                )
                ratio = (observation.np_calls + 1.0) / (
                    plan.predicted_np_calls + 1.0
                )
                total += 1
                lo, hi = CALIBRATION_HARD_BAND
                assert lo <= ratio <= hi, (
                    regime, seed, name, method, plan.procedure, ratio,
                )
                lo, hi = CALIBRATION_CORE_BAND
                if lo <= ratio <= hi:
                    in_band += 1
                else:
                    misses.append((seed, name, method, round(ratio, 2)))
    assert in_band / total >= CALIBRATION_CORE_FLOOR, (
        f"{in_band}/{total} in band", misses,
    )


# ----------------------------------------------------------------------
# Meta checks
# ----------------------------------------------------------------------
def test_coverage_floor():
    """The harness quantifies over at least 200 distinct databases."""
    assert sum(COUNTS.values()) >= 200
    seen = set()
    for regime, count in COUNTS.items():
        for seed in range(count):
            seen.add(build_db(regime, seed))
    assert len(seen) >= 200  # regimes don't accidentally coincide


def test_cached_engine_actually_hits():
    """Re-running a differential batch is answered from the cache."""
    db = build_db("positive", 0)
    cached = get_semantics("egcwa", engine="cached")
    cached.model_set(db)
    before = ENGINE_CACHE.stats()["hits"]
    cached.model_set(db)
    assert ENGINE_CACHE.stats()["hits"] == before + 1


def _check_partitioned(engines) -> None:
    for seed in range(10):
        db = random_positive_db(4, 4, seed=seed)
        atoms = sorted(db.vocabulary)
        p, z = atoms[:2], atoms[2:3]
        query = random_query_formula(atoms, depth=2, seed=seed)
        for name in ("ccwa", "ecwa", "circ"):
            brute = get_semantics(name, engine="brute", p=p, z=z)
            expected_models = brute.model_set(db)
            expected = brute.infers(db, query)
            for engine in engines:
                other = get_semantics(name, engine=engine, p=p, z=z)
                assert other.model_set(db) == expected_models, engine
                assert other.infers(db, query) == expected, engine


def test_partitioned_semantics_differential():
    """CCWA/ECWA with explicit non-trivial (P;Z) partitions also agree
    with brute on the oracle and cached engines (the partition is part
    of the cache key)."""
    _check_partitioned(("oracle", "cached"))


def test_partitioned_semantics_differential_cold_pool(cold_pool):
    """The same partitions, oracle engine on a pool of ``maxsize`` 0."""
    _check_partitioned(("oracle",))
