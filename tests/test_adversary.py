"""End-to-end tests of the adversarial scenario factory.

Covers the hunter pipeline (seeded determinism, clean runs on the
healthy tree, divergence capture under an injected planner bug with a
minimized diagnosis report), the corpus-folding idempotence contract,
and the ``repro-ddb hunt`` CLI surface.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.adversary import (
    CorpusEntry,
    HuntConfig,
    build_case,
    corpus_databases,
    corpus_id,
    fold_survivors,
    hunt,
    injected_planner_bug,
    load_corpus,
)
from repro.adversary.report import render_diagnosis, report_filename
from repro.cli import main as cli_main
from repro.engine.cache import clear_cache
from repro.logic.parser import parse_database


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Injected bugs must never leak corrupted values through the
    process-wide engine cache into other tests."""
    clear_cache()
    yield
    clear_cache()


# ----------------------------------------------------------------------
# The hunt loop
# ----------------------------------------------------------------------
def test_hunt_is_deterministic_per_seed():
    first = build_case(HuntConfig(seed=11), 3)
    second = build_case(HuntConfig(seed=11), 3)
    assert first is not None and second is not None
    assert first.base == second.base
    assert first.mutant == second.mutant
    assert first.semantics == second.semantics
    assert str(first.query) == str(second.query)


def test_hunt_clean_on_healthy_tree():
    report = hunt(HuntConfig(seed=2026, max_cases=40, budget_ms=120_000))
    assert report.clean, [d.summary() for d in report.divergences]
    assert report.cases_run == 40
    assert report.mutants_checked > 0
    assert report.certificate_checks > 0


@pytest.mark.slow
def test_hunt_500_cases_zero_divergences():
    """The acceptance-criteria run: >=500 mutated databases, in budget,
    zero unexplained divergences on the current tree."""
    report = hunt(HuntConfig(seed=0, max_cases=500, budget_ms=600_000))
    assert report.cases_run == 500
    assert not report.budget_exhausted
    assert report.clean, [d.summary() for d in report.divergences]


def test_boundary_mutators_oversampled_near_fast_paths():
    """Bases in planner fast-path territory must draw the boundary
    mutators (barely-non-Horn / barely-non-HCF / barely-unstratified)
    well above their catalogue share, so hunts concentrate on the cost
    model's dispatch edges."""
    config = HuntConfig(seed=404, regimes=("horn", "positive"))
    kinds = {"boundary": 0, "metamorphic": 0}
    for index in range(200):
        case = build_case(config, index)
        if case is None or case.mutator is None:
            continue
        kinds[case.mutator.kind] += 1
    total = kinds["boundary"] + kinds["metamorphic"]
    assert total > 100
    # Unweighted, boundary mutators are ~2 of ~9 applicable choices
    # (~22%); the 3x weighting must push them past one third.
    assert kinds["boundary"] / total > 1 / 3


@pytest.mark.slow
def test_hunt_planner_cost_paths_zero_divergences():
    """Pinned slow-lane hunt over the planner-heavy regimes: Horn,
    deductive and stratified bases with boundary mutants over-sampled,
    exercising the cost model's fast-path/fallback edges (hcf-founded
    single-query literals, hcf-closure memoization, stratified-perfect)
    through the full four-engine differential stack."""
    report = hunt(
        HuntConfig(
            seed=1816,  # Truszczyński trichotomy arXiv 1007.2816
            max_cases=300,
            budget_ms=600_000,
            regimes=("horn", "positive", "deductive", "stratified"),
        )
    )
    assert report.cases_run == 300
    assert not report.budget_exhausted
    assert report.clean, [d.summary() for d in report.divergences]


def test_ground_truth_cap_is_not_a_divergence():
    """PWS split enumeration refuses instances above MAX_SPLITS with
    GroundTruthCapError; the hunter must treat that as "ground truth
    unavailable" and not flag the polynomial-check engines (which agree
    with each other) as a four-engine disagreement."""
    from repro.errors import GroundTruthCapError
    from repro.adversary.hunter import find_engine_disagreement
    from repro.logic.parser import parse_formula
    from repro.semantics import get_semantics
    from repro.semantics.pws import possible_models_by_splits

    # 7 wide disjunctive clauses: split_count = 7^7 = 823543 > 2^16.
    text = " ".join(
        f"a{i} | b{i} | c{i}." for i in range(7)
    )
    db = parse_database(text)
    with pytest.raises(GroundTruthCapError):
        possible_models_by_splits(db)
    assert get_semantics("pws", engine="oracle").has_model(db)
    assert (
        find_engine_disagreement(
            db, "pws", parse_formula("a0"), "a0"
        )
        is None
    )


def test_hunt_respects_wall_budget():
    report = hunt(HuntConfig(seed=1, max_cases=100_000, budget_ms=0.0))
    assert report.budget_exhausted
    assert report.cases_run < 100_000


def test_injected_planner_bug_is_caught_and_minimized(tmp_path):
    reports_dir = tmp_path / "reports"
    with injected_planner_bug():
        clear_cache()
        report = hunt(
            HuntConfig(
                seed=3,
                max_cases=40,
                budget_ms=300_000,
                reports_dir=str(reports_dir),
                corpus_path=str(tmp_path / "corpus.json"),
            )
        )
    assert not report.clean  # the hunter MUST catch the corruption
    divergence = report.divergences[0]
    assert divergence.kind == "engine-disagreement"
    assert len(divergence.db.clauses) <= 15  # acceptance criterion
    assert divergence.report_path is not None
    text = open(divergence.report_path).read()
    assert "# Divergence: engine-disagreement" in text
    assert "ground truth" in text
    assert "repro-ddb hunt --seed 3" in text
    assert "## Fragment profile" in text
    # Survivors reached the corpus.
    assert report.corpus_added >= 1


def test_diagnosis_report_sections(tmp_path):
    with injected_planner_bug():
        clear_cache()
        report = hunt(HuntConfig(seed=3, max_cases=10, budget_ms=300_000))
    divergence = report.divergences[0]
    text = render_diagnosis(divergence)
    for section in (
        "## Reproduction",
        "## Disagreement",
        "## Minimized witness",
        "## Fragment profile",
        "## Oracle-call accounting",
        "```json",
        "```prolog",
    ):
        assert section in text, section
    seed_line = json.loads(
        text.split("```json\n", 1)[1].split("\n```", 1)[0]
    )
    assert seed_line["seed"] == 3
    assert report_filename(divergence).endswith(".md")


# ----------------------------------------------------------------------
# Corpus folding: canonical, deduplicated, idempotent
# ----------------------------------------------------------------------
def _entry(text, **kwargs):
    return CorpusEntry(db=parse_database(text), **kwargs)


def test_fold_survivors_dedups_and_sorts(tmp_path):
    path = str(tmp_path / "corpus.json")
    a = _entry("a | b.", kind="engine-disagreement", semantics="gcwa")
    b = _entry("c :- d.", kind="certificate-violation", semantics="circ")
    added, total = fold_survivors(path, [a, b, a])
    assert (added, total) == (2, 2)
    ids = [entry.id for entry in load_corpus(path)]
    assert ids == sorted(ids)


def test_fold_survivors_idempotent_bytes(tmp_path):
    """Folding the same survivors twice neither grows nor rewrites the
    file — the checked-in corpus only changes for genuinely new
    witnesses."""
    path = str(tmp_path / "corpus.json")
    survivors = [_entry("a | b."), _entry("c :- d, not e.")]
    fold_survivors(path, survivors)
    before = open(path, "rb").read()
    mtime = os.path.getmtime(path)
    added, total = fold_survivors(path, list(reversed(survivors)))
    assert (added, total) == (0, 2)
    assert open(path, "rb").read() == before
    assert os.path.getmtime(path) == mtime  # not even rewritten


def test_fold_survivors_grows_only_for_new(tmp_path):
    path = str(tmp_path / "corpus.json")
    fold_survivors(path, [_entry("a | b.")])
    added, total = fold_survivors(path, [_entry("a | b."), _entry("x.")])
    assert (added, total) == (1, 2)


def test_corpus_id_is_canonical():
    """Structurally equal databases hash identically regardless of the
    textual clause order they were parsed from."""
    one = parse_database("a | b. c :- a.")
    two = parse_database("c :- a. a | b.")
    assert corpus_id(one) == corpus_id(two)
    assert corpus_id(one) != corpus_id(parse_database("a | b."))


def test_corpus_roundtrip(tmp_path):
    path = str(tmp_path / "corpus.json")
    entry = _entry(
        "a | b. :- a, b.", kind="engine-disagreement",
        semantics="egcwa", method="model_set", origin="{'seed': 5}",
    )
    fold_survivors(path, [entry])
    (loaded,) = load_corpus(path)
    assert loaded.db == entry.db
    assert loaded.semantics == "egcwa"
    assert corpus_databases(path) == [(entry.id, entry.db)]


def test_checked_in_corpus_is_canonical():
    """The committed corpus file is in canonical form: re-folding
    nothing into it must not change a byte."""
    path = os.path.join(
        os.path.dirname(__file__), "data", "adversarial_corpus.json"
    )
    assert os.path.exists(path)
    before = open(path, "rb").read()
    added, _total = fold_survivors(path, [])
    assert added == 0
    assert open(path, "rb").read() == before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_hunt_clean(capsys):
    code = cli_main(
        ["hunt", "--seed", "9", "--max-cases", "5", "--format", "json"]
    )
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["cases_run"] == 5
    assert payload["divergences"] == []


def test_cli_hunt_reports_divergence(tmp_path, capsys):
    with injected_planner_bug():
        clear_cache()
        code = cli_main(
            [
                "hunt", "--seed", "3", "--max-cases", "10",
                "--reports-dir", str(tmp_path / "reports"),
                "--corpus", str(tmp_path / "corpus.json"), "--fold",
            ]
        )
    out = capsys.readouterr().out
    assert code == 1  # divergences -> nonzero exit for CI
    assert "DIVERGENCES" in out
    assert list((tmp_path / "reports").glob("*.md"))
    assert (tmp_path / "corpus.json").exists()
