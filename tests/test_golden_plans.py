"""Golden-plan regression harness.

``tests/data/golden_plans.json`` pins the planner's chosen procedure,
claimed complexity, and predicted NP/Σ₂ᵖ/node counts for a corpus of
databases spanning every lattice region × every dispatch family. Any
cost-model or lattice change that silently flips a plan fails here;
deliberate changes are signed off by re-running
``tests/regen_golden_plans.py`` and reviewing the JSON diff.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.fragment import FRAGMENT_ORDER, fragment_profile
from repro.analysis.planner import FragmentPlanner
from repro.logic.parser import parse_database
from repro.semantics import get_semantics
from tests.regen_golden_plans import GOLDEN_PATH, build_entries


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["entries"]


GOLDEN = load_golden()


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[entry["id"] for entry in GOLDEN]
)
def test_replayed_plan_matches_golden(entry):
    planner = FragmentPlanner()
    prof = fragment_profile(parse_database(entry["db"]))
    plan = planner.plan(
        prof, get_semantics(entry["semantics"]), entry["method"]
    )
    actual = {
        "fragment": plan.fragment,
        "procedure": plan.procedure,
        "claim": plan.claim,
        "predicted_np_calls": plan.predicted_np_calls,
        "predicted_sigma2": plan.predicted_sigma2,
        "predicted_nodes": plan.predicted_nodes,
    }
    assert actual == entry["expected"], entry["id"]


def test_golden_file_is_current():
    """The checked-in JSON byte-matches what the regen script would
    write today — no hand edits, no stale entries."""
    assert build_entries() == GOLDEN


def test_golden_corpus_covers_the_lattice():
    fragments = {entry["expected"]["fragment"] for entry in GOLDEN}
    assert fragments == set(FRAGMENT_ORDER), (
        set(FRAGMENT_ORDER) ^ fragments
    )


def test_golden_corpus_covers_every_procedure():
    procedures = {entry["expected"]["procedure"] for entry in GOLDEN}
    assert procedures == {
        "default", "horn-least-model", "hcf-founded", "hcf-closure",
        "stratified-perfect", "kernel-bitset",
    }
