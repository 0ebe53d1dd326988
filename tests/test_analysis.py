"""Tests for the static-analysis subsystem (:mod:`repro.analysis`).

Prong 1 — input analysis: fragment detectors with *is* / *is-barely-not*
witness pairs, planner dispatch, the zero-SAT-call Horn fast path, and
the certifier's tightened fragment envelopes.

Prong 2 — codebase analysis: the static analyzer's convention rules
must report a clean tree on this PR *and* flag seeded violations (both
directions of the CI gate), with inline waivers honoured.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    FragmentAnalyzer,
    FragmentPlanner,
    fragment_profile,
)
from repro.analysis.planner import (
    DEFAULT_PROCEDURE,
    HCF_CLOSURE_PROCEDURE,
    HCF_PROCEDURE,
    HORN_COLLAPSE,
    HORN_PROCEDURE,
    KERNEL_PROCEDURE,
)
from repro.analysis.procedures import (
    HeadCycleFreeSolver,
    horn_least_model,
    is_founded_minimal,
)
from repro.analysis.static import checker, default_target
from repro.analysis.static.complexity import conp_semantics
from repro.cli import main as cli_main
from repro.engine.cache import ENGINE_CACHE, stratification_for
from repro.errors import ReproError
from repro.logic.parser import parse_database, parse_formula
from repro.obs.accounting import OracleObservation, observe
from repro.obs.certify import Certifier, Task
from repro.semantics import get_semantics
from repro.semantics.stratification import stratify
from repro.session import DatabaseSession


# ----------------------------------------------------------------------
# Fragment detectors: is / is-barely-not witness pairs
# ----------------------------------------------------------------------
def profile(text: str):
    return FragmentAnalyzer().analyze(parse_database(text))


def test_definite_witness():
    p = profile("a. b :- a.")
    assert p.fragment == "definite"
    assert p.is_definite and p.is_horn and p.head_cycle_free


def test_barely_not_definite_integrity():
    """One integrity clause: still Horn, no longer definite."""
    p = profile("a. b :- a. :- a, c.")
    assert not p.is_definite
    assert p.is_horn
    assert p.fragment == "horn"


def test_barely_not_horn_disjunction():
    """One 2-atom head: no longer Horn, still acyclic-deductive (the
    positive dependency graph of a chain has no cycle at all)."""
    p = profile("a. b :- a. c | d :- b.")
    assert not p.is_horn
    assert p.head_cycle_free and p.positive_acyclic
    assert p.fragment == "acyclic-deductive"


def test_acyclic_witness_and_self_loop_boundary():
    """A single self-loop breaks acyclicity but not head-cycle-freeness
    — the trichotomy refinement's own is/is-barely-not pair."""
    p = profile("a | b. c :- a. c :- b.")
    assert p.positive_acyclic
    assert p.fragment == "acyclic-deductive"
    q = profile("a | b. c :- a. c :- b. c :- c.")
    assert not q.positive_acyclic and q.head_cycle_free
    assert q.fragment == "hcf-deductive"


def test_hcf_witness():
    """Disjunctive heads whose atoms never share a positive cycle: a
    positive cycle elsewhere (c <-> d) keeps HCF but not acyclicity."""
    p = profile("a | b. c :- a. c :- b. d :- c. c :- d.")
    assert p.head_cycle_free and not p.positive_acyclic
    assert p.largest_scc == 2
    assert p.fragment == "hcf-deductive"


def test_barely_not_hcf_head_cycle():
    """The minimal head cycle: a and b support each other positively
    *and* share a disjunctive head."""
    p = profile("a | b. a :- b. b :- a.")
    assert not p.head_cycle_free
    assert p.fragment == "deductive"
    assert p.largest_scc == 2


def test_hcf_heads_not_tied():
    """Sharing a head must NOT merge SCCs by itself (heads are tied in
    the stratification graph but deliberately not here)."""
    p = profile("a | b.")
    assert p.head_cycle_free
    assert p.scc_count == 2 and p.largest_scc == 1


def test_stratified_normal_witness():
    """Stratified with every head ≤ 1 atom: the trichotomy's pure-P
    cell (unique perfect = unique stable model)."""
    p = profile("a. b :- not a.")
    assert p.is_stratified
    assert p.strata >= 2
    assert p.max_head_width == 1
    assert p.fragment == "stratified-normal"


def test_stratified_witness():
    """A disjunctive head keeps the database out of the normal cell."""
    p = profile("a. b | c :- not a.")
    assert p.is_stratified
    assert p.strata >= 2
    assert p.fragment == "stratified"


def test_barely_not_stratified_negative_cycle():
    p = profile("a :- not b. b :- not a.")
    assert not p.is_stratified
    assert p.strata == 0
    assert p.fragment == "general"


def test_positive_is_orthogonal_to_the_chain():
    """Table 1's regime: negation-free AND no integrity clauses."""
    assert profile("a. b :- a.").is_positive
    assert not profile("a. :- a, b.").is_positive  # IC => Table 2
    assert profile("a. :- a, b.").negation_free


# ----------------------------------------------------------------------
# Shared per-database caches
# ----------------------------------------------------------------------
def test_fragment_profile_memoized():
    db = parse_database("a. b :- a. c | d :- b.")
    fragment_profile(db)
    before = ENGINE_CACHE.stats()["hits_by_kind"].get("fragment_profile", 0)
    assert fragment_profile(db) is fragment_profile(db)
    hits = ENGINE_CACHE.stats()["hits_by_kind"]["fragment_profile"]
    assert hits >= before + 2


def test_stratification_cached_and_reused_by_analyzer():
    db = parse_database("a. b :- not a.")
    first = stratification_for(db)
    before = ENGINE_CACHE.stats()["hits_by_kind"].get("stratification", 0)
    assert stratification_for(db) is first
    ENGINE_CACHE.get_or_compute("fragment_profile", db, lambda: None)
    FragmentAnalyzer().analyze(db)  # profiles go through the same cache
    hits = ENGINE_CACHE.stats()["hits_by_kind"]["stratification"]
    assert hits >= before + 2


def test_stratification_level_unknown_atom_message():
    stratification = stratify(parse_database("a. b :- not a."))
    assert stratification is not None
    with pytest.raises(ReproError, match="not part of this stratification"):
        stratification.level("zz_unknown")


# ----------------------------------------------------------------------
# Fast-path procedures
# ----------------------------------------------------------------------
def test_horn_least_model_and_consistency():
    model, consistent = horn_least_model(
        parse_database("a. b :- a. c :- b, d.")
    )
    assert consistent and set(model) == {"a", "b"}
    _, consistent = horn_least_model(parse_database("a. b :- a. :- b."))
    assert not consistent


def test_foundedness_check():
    db = parse_database("a | b. c :- a. c :- b.")
    assert is_founded_minimal(db, {"a", "c"})
    assert not is_founded_minimal(db, {"a", "b", "c"})  # not minimal
    # A self-loop keeps the fragment HCF; {a} is founded through the
    # disjunctive fact (and is genuinely minimal).
    loop = parse_database("a | b. a :- a.")
    assert is_founded_minimal(loop, {"a"})
    assert is_founded_minimal(loop, {"b"})
    # Outside HCF the check is sound but incomplete: {a, b} is the only
    # (hence minimal) model of the head cycle, yet unfounded.
    cyc = parse_database("a | b. a :- b. b :- a.")
    assert not is_founded_minimal(cyc, {"a", "b"})


def test_hcf_solver_agrees_with_sigma2_machine():
    from repro.sat.minimal import MinimalModelSolver

    db = parse_database("a | b. c :- a. c :- b. d | e :- c.")
    reference = MinimalModelSolver(db)
    fast = HeadCycleFreeSolver(db)
    for text in ("c", "a", "d", "d | e", "a & b"):
        formula = parse_formula(text)
        assert fast.np_entails(formula) == reference.entails(formula), text


# ----------------------------------------------------------------------
# Planner dispatch
# ----------------------------------------------------------------------
def test_planner_horn_dispatch():
    prof = profile("a. b :- a.")
    planner = FragmentPlanner()
    for name in sorted(HORN_COLLAPSE - {"cwa"}):
        plan = planner.plan(prof, get_semantics(name), "infers")
        assert plan.procedure == HORN_PROCEDURE, name
        assert plan.claim == "P"
        assert plan.envelope_key == "horn"
    # Three-valued PDSM does not collapse and must stay on the default.
    plan = planner.plan(prof, get_semantics("pdsm"), "infers")
    assert plan.procedure == DEFAULT_PROCEDURE


def test_planner_hcf_dispatch():
    prof = profile("a | b. c :- a. c :- b.")
    planner = FragmentPlanner()
    # MM-reducible semantics answer with one founded search (cheaper
    # than the kernel's setup constant on any profile).
    for name in ("egcwa", "ecwa", "dsm"):
        plan = planner.plan(prof, get_semantics(name), "infers")
        assert plan.procedure == HCF_PROCEDURE, name
        assert plan.claim == "coNP"
        assert plan.envelope_key == "hcf"
    # The GCWA family's formula inference on a *small* vocabulary is
    # cheapest on the bitset kernel (zero oracle calls); the literal
    # reduction stays on the single founded search.
    for name in ("gcwa", "ccwa"):
        plan = planner.plan(prof, get_semantics(name), "infers")
        assert plan.procedure == KERNEL_PROCEDURE, name
        assert plan.claim == "EXP"
        assert plan.envelope_key == "kernel"
        literal_plan = planner.plan(
            prof, get_semantics(name), "infers_literal"
        )
        assert literal_plan.procedure == HCF_PROCEDURE, name
    # model_set on a small vocabulary also rides the kernel now (the
    # enumeration is exactly what the kernel packs).
    plan = planner.plan(prof, get_semantics("egcwa"), "model_set")
    assert plan.procedure == KERNEL_PROCEDURE


def test_planner_hcf_dispatch_large_vocabulary():
    """Past the kernel's exponential sweep the PR 7 dispatch is intact:
    the 26-bit-capped kernel term prices a 14-atom connected database
    out, so the founded closure / default fallbacks win again."""
    chain = " ".join(f"x{i + 1} :- x{i}." for i in range(1, 12))
    prof = profile(f"a | b. x1 :- a. x1 :- b. {chain}")
    assert prof.atoms == 14 and prof.component_count == 1
    planner = FragmentPlanner()
    for name in ("gcwa", "ccwa"):
        plan = planner.plan(prof, get_semantics(name), "infers")
        assert plan.procedure == HCF_CLOSURE_PROCEDURE, name
        assert plan.claim == "coNP"
        assert plan.envelope_key == "hcf"
    plan = planner.plan(prof, get_semantics("egcwa"), "infers")
    assert plan.procedure == HCF_PROCEDURE
    # model_set has no NP-level reduction (there can be exponentially
    # many minimal models) and the kernel is priced out: default.
    plan = planner.plan(prof, get_semantics("egcwa"), "model_set")
    assert plan.procedure == DEFAULT_PROCEDURE


def test_planner_respects_non_default_partition():
    """The fast paths are proved for the default partition only."""
    prof = profile("a. b :- a.")
    inner = get_semantics("ecwa", p=["a"], z=["b"])
    plan = FragmentPlanner().plan(prof, inner, "infers")
    assert plan.procedure == DEFAULT_PROCEDURE
    assert "partition" in plan.reason


def test_planner_head_cycle_falls_back():
    # A head cycle disables every founded candidate.  On a tiny
    # vocabulary the kernel (which needs no head-cycle-freeness — it
    # enumerates) still wins; on a large one nothing is left but the
    # default engine.
    prof = profile("a | b. a :- b. b :- a.")
    plan = FragmentPlanner().plan(prof, get_semantics("egcwa"), "infers")
    assert plan.procedure == KERNEL_PROCEDURE
    chain = " ".join(f"x{i + 1} :- x{i}." for i in range(1, 12))
    big = profile(f"a | b. a :- b. b :- a. x1 :- a. {chain}")
    assert big.atoms == 14
    plan = FragmentPlanner().plan(big, get_semantics("egcwa"), "infers")
    assert plan.procedure == DEFAULT_PROCEDURE


# ----------------------------------------------------------------------
# The Horn fast path really is zero-SAT-call P (and certified as such)
# ----------------------------------------------------------------------
def test_horn_fast_path_zero_sat_calls():
    db = parse_database("a. b :- a. c :- a, b. d :- e.")
    session = DatabaseSession(db, engine="planned")
    with observe() as window:
        answer = session.ask("b & c", semantics="gcwa")
        literal = session.ask_literal("~d", semantics="egcwa")
    assert answer.verdict and literal.verdict
    assert window.np_calls == 0
    assert window.sigma2_dispatches == 0
    assert answer.plan.procedure == HORN_PROCEDURE
    assert answer.complexity is not None and answer.complexity.ok
    # The tightened envelope really is the all-zero Horn envelope.
    assert answer.complexity.envelope.np_calls.limit(len(db.vocabulary)) == 0


def test_hcf_fast_path_no_sigma2_dispatch():
    db = parse_database("a | b. c :- a. c :- b.")
    session = DatabaseSession(db, engine="planned")
    with observe() as window:
        answer = session.ask("c", semantics="egcwa")
    assert answer.verdict
    assert answer.plan.procedure == HCF_PROCEDURE
    assert window.sigma2_dispatches == 0
    assert answer.complexity is not None and answer.complexity.ok


def test_planned_engine_agrees_with_oracle_on_stray_atoms():
    """Out-of-vocabulary query atoms must be grounded to false, not
    treated as free SAT variables by the fast paths."""
    db = parse_database("a | b. c :- a. c :- b.")
    planned = get_semantics("egcwa", engine="planned")
    oracle = get_semantics("egcwa", engine="oracle")
    for literal in ("stray", "~stray"):
        assert planned.infers_literal(db, literal) == oracle.infers_literal(
            db, literal
        ), literal


def test_certifier_tightening_flags_single_np_call():
    """A Horn-planned query that issued even one NP call violates the
    tightened envelope — the same observation passes the table cell."""
    db = parse_database("a. b :- a.")
    planned = get_semantics("gcwa", engine="planned")
    plan = planned.plan_for(db, "infers")
    assert plan.envelope_key == "horn"
    observation = OracleObservation(np_calls=1)
    certifier = Certifier()
    tightened = certifier.check(
        "gcwa", Task.FORMULA, db, observation, "planned", plan=plan
    )
    assert not tightened.ok
    assert any(v.metric == "np_calls" for v in tightened.violations)
    relaxed = certifier.check(
        "gcwa", Task.FORMULA, db, observation, "planned", plan=None
    )
    assert relaxed.ok


# ----------------------------------------------------------------------
# Prong 2: the static analyzer's convention rules
# ----------------------------------------------------------------------
#: Seeded inputs, one file each.  ``seeded_findings`` checks them all in
#: one run, so the package joins the call graph once for this module.
SEEDED = {
    "seeded.py": (
        "from repro.sat.solver import SatSolver\n"
        "from repro.semantics.stratification import stratify\n"
        "\n"
        "def find_minimal_satisfying(condition):\n"
        "    solver = SatSolver()\n"
        "    while True:\n"
        "        if not solver.solve():\n"
        "            return None\n"
        "\n"
        "def analyze(db):\n"
        "    return stratify(db)\n"
    ),
    "waived.py": (
        "from repro.sat.solver import SatSolver\n"
        "\n"
        "a = SatSolver()  # lint: ok RPR001 -- test fixture\n"
        "# lint: ok RPR001\n"
        "b = SatSolver()\n"
        "c = SatSolver()  # lint: ok RPR004 -- wrong rule, no effect\n"
    ),
    "repro/semantics/ddr.py": "from ..sat.minimal import MinimalModelSolver\n",
    "repro/semantics/egcwa.py": (
        "from ..sat.minimal import MinimalModelSolver\n"
    ),
    "rogue.py": (
        "from repro.semantics.base import Semantics, register\n"
        "\n"
        "class Rogue(Semantics):\n"
        "    name = 'rogue'\n"
        "\n"
        "@register\n"
        "class OffTable(Semantics):\n"
        "    name = 'offtable'\n"
        "\n"
        "@register\n"
        "class Fine(Semantics):\n"
        "    name = 'egcwa'\n"
    ),
    "one.py": "from x import SatSolver\ns = SatSolver()\n",
}


@pytest.fixture(scope="module")
def seeded_findings(tmp_path_factory):
    """``{name: (path, findings in that file)}`` from one check."""
    root = tmp_path_factory.mktemp("seeded").resolve()
    paths = {}
    for name, source in SEEDED.items():
        paths[name] = root / name
        paths[name].parent.mkdir(parents=True, exist_ok=True)
        paths[name].write_text(source, encoding="utf-8")
    report = checker.check(extra_paths=list(paths.values()))
    return {
        name: (path, [f for f in report.findings if f.path == str(path)])
        for name, path in paths.items()
    }


def test_lint_clean_on_this_tree(capsys):
    """Direction 1 of the CI gate: the shipped tree has zero findings."""
    assert cli_main(["lint", str(default_target())]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_flags_seeded_violations(seeded_findings, capsys):
    """Direction 2: a violating file fails the gate with the right rules."""
    seeded, findings = seeded_findings["seeded.py"]
    rules = {finding.rule for finding in findings}
    assert {"RPR001", "RPR002", "RPR004", "RPR006"} <= rules
    assert cli_main(["lint", str(seeded)]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_lint_waivers_suppress(seeded_findings):
    _, findings = seeded_findings["waived.py"]
    assert len(findings) == 1
    assert findings[0].line == 6


def test_lint_conp_purity_rule(seeded_findings):
    """Σ₂ᵖ machinery references are RPR102 findings only in the
    coNP-classified semantics modules."""
    _, conp_findings = seeded_findings["repro/semantics/ddr.py"]
    _, other_findings = seeded_findings["repro/semantics/egcwa.py"]
    assert {f.rule for f in conp_findings} == {"RPR102"}
    assert other_findings == []


def test_lint_unregistered_semantics(seeded_findings):
    _, findings = seeded_findings["rogue.py"]
    findings = [f for f in findings if f.rule == "RPR005"]
    assert len(findings) == 2
    assert "not @register-ed" in findings[0].message
    assert "no Table 1/2 row claim" in findings[1].message


def test_lint_json_report(seeded_findings, capsys):
    seeded, _ = seeded_findings["one.py"]
    assert cli_main(["lint", str(seeded), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 1
    assert report["findings"][0]["rule"] == "RPR001"


def test_conp_semantics_derived_from_tables():
    """The RPR102 module set is derived from the table claims."""
    assert conp_semantics() == frozenset({"ddr", "pws"})
