"""Tests for the planner's calibrated cost model
(:mod:`repro.analysis.cost`).

Four prongs: monotonicity of every formula in the profile counts it
reads, exact predicted counts on hand-built Horn / HCF / stratified
databases, the never-worse-than-default selection rule, and a
hypothesis property that the chosen plan's predicted scalar is the
minimum over the candidate table (modulo the strict-improvement tie
rule).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import (
    COST_MODEL,
    DEFAULT_PROCEDURE,
    FF_REDUCIBLE,
    HCF_CLOSURE_PROCEDURE,
    HCF_PROCEDURE,
    HORN_COLLAPSE,
    HORN_PROCEDURE,
    KERNEL_PROCEDURE,
    KERNEL_SETUP,
    MM_REDUCIBLE,
    PERFECT_COLLAPSE,
    STRATIFIED_PROCEDURE,
)
from repro.analysis.fragment import FragmentAnalyzer
from repro.analysis.planner import FragmentPlanner
from repro.logic.parser import parse_database
from repro.semantics import get_semantics

ALL_METHODS = (
    "infers", "infers_literal", "infers_brave", "has_model", "model_set",
)


def profile(text: str):
    return FragmentAnalyzer().analyze(parse_database(text))


# ----------------------------------------------------------------------
# Monotonicity: no profile growth ever makes a query look cheaper
# ----------------------------------------------------------------------
GROWTH_FIELDS = (
    "atoms", "clauses", "disjunctive_clauses", "clauses_with_negation",
    "largest_scc", "strata",
)


@pytest.mark.parametrize("field", GROWTH_FIELDS)
@pytest.mark.parametrize("method", ALL_METHODS)
def test_default_estimate_monotone(field, method):
    base = profile("a | b. c :- a. c :- b. d :- not c.")
    for semantics in ("gcwa", "egcwa", "ecwa", "icwa"):
        small = COST_MODEL.default_estimate(base, semantics, method)
        for delta in (1, 4, 16):
            grown = replace(
                base, **{field: getattr(base, field) + delta}
            )
            big = COST_MODEL.default_estimate(grown, semantics, method)
            assert big.scalar >= small.scalar, (field, semantics, method)
            assert big.np_calls >= small.np_calls


def test_growth_term_monotone_in_scc_and_clauses():
    base = profile("a | b. c :- a. c :- b.")
    g0 = COST_MODEL.growth(base)
    assert COST_MODEL.growth(replace(base, largest_scc=40)) > g0
    assert COST_MODEL.growth(replace(base, atoms=40)) > g0
    assert COST_MODEL.growth(replace(base, disjunctive_clauses=40)) > g0


# ----------------------------------------------------------------------
# Exact counts on hand-built databases
# ----------------------------------------------------------------------
def test_horn_candidate_is_all_zero():
    prof = profile("a. b :- a. :- a, c.")
    assert prof.is_horn
    for semantics in sorted(HORN_COLLAPSE):
        for method in ALL_METHODS:
            table = COST_MODEL.candidates(prof, semantics, method)
            horn = [
                c for c in table if c.procedure == HORN_PROCEDURE
            ]
            assert len(horn) == 1, (semantics, method)
            assert horn[0].np_calls == 0
            assert horn[0].sigma2_dispatches == 0
            assert horn[0].nodes == 0
            assert horn[0].scalar == 0


def test_stratified_perfect_candidate_is_all_zero():
    prof = profile("win1 :- not win2. win2 :- not win3. win3.")
    assert prof.fragment == "stratified-normal"
    for semantics in sorted(PERFECT_COLLAPSE):
        table = COST_MODEL.candidates(prof, semantics, "infers")
        strat = [
            c for c in table if c.procedure == STRATIFIED_PROCEDURE
        ]
        assert len(strat) == 1, semantics
        assert strat[0].scalar == 0
    # GCWA-family semantics read negation classically: no candidate.
    for semantics in sorted(FF_REDUCIBLE):
        table = COST_MODEL.candidates(prof, semantics, "infers")
        assert all(
            c.procedure != STRATIFIED_PROCEDURE for c in table
        ), semantics


def test_hcf_exact_counts_small_db():
    """3 atoms, 1 disjunctive clause, singleton SCCs: G = (3+1+1)//8 = 0,
    so S = 3, F = 2, FF = 3*3+1 = 10, FF0 = 3*2+1 = 7."""
    prof = profile("a | b. c :- a. c :- b.")
    assert COST_MODEL.growth(prof) == 0
    assert COST_MODEL.sigma2_search_np(prof) == 3
    assert COST_MODEL.founded_search_np(prof) == 2
    assert COST_MODEL.ff_closure_np(prof) == 10
    assert COST_MODEL.ff_closure_np(prof, founded=True) == 7
    assert COST_MODEL.enumeration_nodes(prof) == 4  # 2^(1+1)

    # MM family, formula inference: founded search vs one Σ₂ᵖ dispatch
    # (the kernel candidate rides along since PR 8).
    default, hcf, kernel = COST_MODEL.candidates(prof, "egcwa", "infers")
    assert default.procedure == DEFAULT_PROCEDURE
    assert (default.np_calls, default.sigma2_dispatches) == (3, 1)
    assert hcf.procedure == HCF_PROCEDURE
    assert (hcf.np_calls, hcf.sigma2_dispatches) == (2, 0)
    assert kernel.procedure == KERNEL_PROCEDURE
    assert (kernel.np_calls, kernel.sigma2_dispatches) == (0, 0)
    assert kernel.nodes == KERNEL_SETUP + 2 ** 4  # minimal-only sweep

    # GCWA formula inference: per-atom Σ₂ᵖ closure vs founded closure.
    default, closure, kernel = COST_MODEL.candidates(prof, "gcwa", "infers")
    assert (default.np_calls, default.sigma2_dispatches) == (10, 3)
    assert closure.procedure == HCF_CLOSURE_PROCEDURE
    assert (closure.np_calls, closure.sigma2_dispatches) == (7, 0)
    assert kernel.nodes == KERNEL_SETUP + 2 ** 4 + 2 ** 4  # + full sweep

    # GCWA literal: single-dispatch reduction on both sides.
    default, founded, kernel = COST_MODEL.candidates(
        prof, "gcwa", "infers_literal"
    )
    assert (default.np_calls, default.sigma2_dispatches) == (3, 1)
    assert (founded.np_calls, founded.sigma2_dispatches) == (2, 0)
    # Never-worse rule keeps the founded literal reduction in charge:
    # the kernel's setup constant prices it above one founded search.
    assert founded.scalar < kernel.scalar


def test_strata_term_prices_stratified_iteration():
    two = profile("a. b :- not a.")
    deep = replace(two, strata=5)
    shallow_np = COST_MODEL.default_estimate(two, "icwa", "infers").np_calls
    deep_np = COST_MODEL.default_estimate(deep, "icwa", "infers").np_calls
    assert deep_np == shallow_np + (5 - two.strata)


# ----------------------------------------------------------------------
# Never-worse-than-default rule
# ----------------------------------------------------------------------
def test_specialized_candidate_requires_strict_improvement():
    prof = profile("a | b. c :- a. c :- b.")
    chosen, table = COST_MODEL.choose(prof, "egcwa", "infers")
    assert chosen.procedure == HCF_PROCEDURE
    assert chosen.scalar < table[0].scalar
    # Inflate the fragment until the founded search matches the default
    # dispatch's scalar: 2 + G >= 3 + G + 2 never holds, so force a tie
    # artificially through a profile where the default has no dispatch
    # (perf has none and gains no Σ₂ᵖ weight).
    chosen_perf, table_perf = COST_MODEL.choose(prof, "perf", "infers")
    default_perf = table_perf[0]
    hcf_perf = next(
        c for c in table_perf if c.procedure == HCF_PROCEDURE
    )
    if hcf_perf.scalar < default_perf.scalar:
        assert chosen_perf.procedure == HCF_PROCEDURE
    else:
        assert chosen_perf.procedure == DEFAULT_PROCEDURE


def test_ties_fall_back_to_default():
    """When a specialized estimate does not strictly beat the default,
    the planner must stay on the table procedure."""
    prof = profile("a | b. c :- a. c :- b.")
    model = COST_MODEL

    class Pessimist(type(model)):
        def founded_search_np(self, profile):
            # Founded searches priced exactly at the default dispatch's
            # scalar: no strict improvement anywhere.
            return model.sigma2_search_np(profile) + 2.0

        def kernel_nodes(self, profile, semantics, method):
            # Price the kernel out so the founded tie is what decides.
            return 1e9

    chosen, table = Pessimist().choose(prof, "egcwa", "infers")
    specialized = next(
        c for c in table if c.procedure == HCF_PROCEDURE
    )
    assert specialized.scalar == table[0].scalar
    assert chosen.procedure == DEFAULT_PROCEDURE


def test_non_default_parameterization_disables_fast_paths():
    prof = profile("a. b :- a.")
    chosen, table = COST_MODEL.choose(
        prof, "ecwa", "infers", default_parameterization=False
    )
    assert chosen.procedure == DEFAULT_PROCEDURE
    assert len(table) == 1


def test_planner_never_chooses_above_default():
    """End-to-end: across fragments × semantics × methods, the chosen
    plan's predicted scalar never exceeds the default candidate's."""
    planner = FragmentPlanner()
    corpora = (
        "a. b :- a.",
        "a | b. c :- a. c :- b.",
        "a | b. c :- a. c :- b. c :- c.",
        "a | b. a :- b. b :- a.",
        "win1 :- not win2. win2.",
        "a. b | c :- not a.",
        "x :- not y. y :- not x.",
    )
    for text in corpora:
        prof = profile(text)
        for semantics in ("gcwa", "ccwa", "egcwa", "ecwa", "icwa",
                          "perf", "dsm", "cwa", "ddr", "pdsm"):
            for method in ALL_METHODS:
                plan = planner.plan(
                    prof, get_semantics(semantics), method
                )
                default = plan.candidates[0]
                chosen = next(
                    c for c in plan.candidates
                    if c.procedure == plan.procedure
                )
                assert chosen.scalar <= default.scalar, (
                    text, semantics, method,
                )


# ----------------------------------------------------------------------
# Hypothesis property: the chosen candidate minimizes the scalar
# ----------------------------------------------------------------------
@st.composite
def profiles(draw):
    atoms = draw(st.integers(min_value=1, max_value=60))
    clauses = draw(st.integers(min_value=1, max_value=80))
    disjunctive = draw(st.integers(min_value=0, max_value=clauses))
    negated = draw(st.integers(min_value=0, max_value=clauses))
    largest_scc = draw(st.integers(min_value=1, max_value=atoms))
    strata = draw(st.integers(min_value=0, max_value=6))
    is_horn = draw(st.booleans()) and disjunctive == 0
    base = profile("a | b. c :- a. c :- b.")
    return replace(
        base,
        atoms=atoms,
        clauses=clauses,
        disjunctive_clauses=disjunctive,
        clauses_with_negation=negated,
        largest_scc=largest_scc,
        strata=strata,
        is_stratified=strata > 0,
        is_horn=is_horn,
        negation_free=negated == 0,
        head_cycle_free=draw(st.booleans()),
        positive_acyclic=largest_scc == 1 and draw(st.booleans()),
        max_head_width=1 if is_horn else 2,
        is_positive=draw(st.booleans()) and negated == 0,
    )


@given(
    prof=profiles(),
    semantics=st.sampled_from(
        sorted(HORN_COLLAPSE | MM_REDUCIBLE | FF_REDUCIBLE | {"pdsm"})
    ),
    method=st.sampled_from(ALL_METHODS),
)
@settings(max_examples=200, deadline=None)
def test_chosen_cost_is_minimum_over_candidates(prof, semantics, method):
    chosen, table = COST_MODEL.choose(prof, semantics, method)
    assert table[0].procedure == DEFAULT_PROCEDURE
    minimum = min(c.scalar for c in table)
    if chosen.procedure == DEFAULT_PROCEDURE:
        # Default wins outright or via the strict-improvement tie rule.
        assert table[0].scalar <= minimum or any(
            c.scalar == table[0].scalar for c in table
        )
        assert minimum >= min(table[0].scalar, minimum)
        assert chosen.scalar == table[0].scalar
        assert minimum == chosen.scalar or minimum < chosen.scalar
        if minimum < chosen.scalar:
            # Only a non-strict improvement was available.
            assert not any(
                c.scalar < table[0].scalar for c in table[1:]
            )
    else:
        assert chosen.scalar == minimum
        assert chosen.scalar < table[0].scalar
