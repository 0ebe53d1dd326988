"""Tests for the static analyzer (``repro-ddb check``, alias ``lint``).

Covers the call-graph builder (cycles, decorated defs, relative
imports, late-bound ``self`` dispatch, brute-branch pruning, dynamic
``getattr`` conservatism-as-warning — including hypothesis-generated
module graphs checked against a reference reachability), the
convention rules' use of resolved call targets, Pass 1's
certify-derived Σ₂ᵖ allowances and fallback-edge annotations, Pass 2's
race rules against the seeded known-bad fixtures in
``tests/data/static_injections/``, the baseline/diff machinery, and
the CLI surface.
"""

from __future__ import annotations

import io
import json
import subprocess
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import baseline as baseline_mod
from repro.analysis.static import checker, complexity
from repro.analysis.static.callgraph import CallGraph, Finding
from repro.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent / "data" / "static_injections"


@pytest.fixture(scope="module")
def clean_report():
    """One whole-program run over the shipped tree."""
    return checker.check()


@pytest.fixture(scope="module")
def injected_report():
    """One whole-program run with every seeded fixture in the graph."""
    return checker.check(extra_paths=sorted(FIXTURES.glob("*.py")))


def findings_in(report, filename):
    return [
        finding for finding in report.findings
        if Path(finding.path).name == filename
    ]


def marker_line(filename, marker):
    for lineno, line in enumerate(
        (FIXTURES / filename).read_text(encoding="utf-8").splitlines(), 1
    ):
        if marker in line:
            return lineno
    raise AssertionError(f"{marker!r} not found in {filename}")


# ----------------------------------------------------------------------
# The CI gate: dogfood + seeded detection
# ----------------------------------------------------------------------

def test_checker_clean_on_this_tree(clean_report):
    """Direction 1 of the gate: zero unwaived findings on the shipped
    tree (the checked-in baseline holds explicitly waived findings
    only — currently none)."""
    assert clean_report.findings == []


def test_injections_do_not_contaminate_the_tree(injected_report):
    """Every finding from the injected run lands in a fixture file —
    the fixtures import production modules without implicating them."""
    for finding in injected_report.findings:
        assert str(FIXTURES) in finding.path


def test_conp_sigma2_leak_flagged(injected_report):
    """A fake coNP (``pws``-row) semantics reaching
    ``find_minimal_satisfying`` through two helper hops is RPR101."""
    hits = [
        finding
        for finding in findings_in(injected_report, "conp_sigma2_leak.py")
        if finding.rule == "RPR101"
    ]
    assert hits, "seeded coNP→Σ₂ᵖ leak was not detected"
    lines = {finding.line for finding in hits}
    assert marker_line("conp_sigma2_leak.py", "def infers") in lines
    direct = next(
        finding for finding in hits
        if finding.line == marker_line("conp_sigma2_leak.py", "def infers")
    )
    assert "find_minimal_satisfying" in direct.message
    assert "_helper_one" in direct.message  # witness path rendered


def test_conp_sweep_leak_flagged(injected_report):
    """A fake coNP (``ddr``-row) semantics calling GCWA's batched
    ``free_for_negation`` sweep is RPR101 at its ``infers``: the sweep
    is a direct loop over ``_sweep_witness``, so the graph sees it."""
    hits = [
        finding
        for finding in findings_in(injected_report, "conp_sweep_leak.py")
        if finding.rule == "RPR101"
    ]
    line = marker_line("conp_sweep_leak.py", "def infers")
    # infers() at its def; the inherited infers_literal() at the class.
    assert {finding.line for finding in hits} == {
        marker_line("conp_sweep_leak.py", "class LeakyDdr"), line,
    }
    direct = next(finding for finding in hits if finding.line == line)
    assert "MinimalModelSolver._sweep_witness" in direct.message
    assert "free_for_negation" in direct.message  # witness path


def test_closure_infers_reach_the_sweep_primitive(clean_report):
    """GCWA's and CCWA's closure inference statically reach the batched
    sweep's Σ₂ᵖ primitive (one dispatch per atom at run time)."""
    graph = checker.build_graph()
    for cls in ("repro.semantics.gcwa.Gcwa", "repro.semantics.ccwa.Ccwa"):
        start = graph.resolve_method(cls, "infers")
        reached = graph.reachable(
            start, self_class=cls, skip_brute=True, skip_fallback=True
        )
        assert "repro.sat.minimal.MinimalModelSolver._sweep_witness" in (
            reached
        ), cls


def test_conp_selected_model_leak_flagged(injected_report):
    """A fake coNP (``pws``-row) semantics whose only search,
    ``selected_model``, dispatches ``find_minimal_satisfying`` is RPR101
    for the inherited ``infers()`` and ``infers_literal()``: the base
    class derives both from that search."""
    hits = [
        finding
        for finding in findings_in(
            injected_report, "conp_selected_model_leak.py"
        )
        if finding.rule == "RPR101"
    ]
    line = marker_line("conp_selected_model_leak.py", "class LeakyPwsSearch")
    assert [finding.line for finding in hits] == [line, line]
    messages = " ".join(finding.message for finding in hits)
    assert "infers()" in messages and "infers_literal()" in messages
    for finding in hits:
        assert "find_minimal_satisfying" in finding.message
        assert "selected_model" in finding.message  # witness path


def test_entry_points_reach_their_selected_model(clean_report):
    """Every registered semantics that defines ``selected_model`` has it
    reachable from its ``infers()``.  RPR101 skips an entry point it
    cannot resolve, so a broken ``infers -> counter_model ->
    selected_model`` link would silently exempt the search.

    PDSM alone overrides ``counter_model`` (in three values ``¬F`` of
    degree 1 is ``F`` of degree 0, not below 1), so its ``infers()``
    reaches that override, and its ``selected_model`` is reached from
    ``infers_brave()``."""
    from repro.semantics import SEMANTICS

    graph = checker.build_graph()

    def reached_from(qualname, method):
        start = graph.resolve_method(qualname, method)
        assert start is not None, (qualname, method)
        return graph.reachable(
            start, self_class=qualname, skip_brute=True, skip_fallback=True
        )

    searched = 0
    for cls in SEMANTICS.values():
        if "selected_model" not in vars(cls):
            continue
        searched += 1
        qualname = f"{cls.__module__}.{cls.__qualname__}"
        search = f"{qualname}.selected_model"
        assert search in reached_from(qualname, "infers_brave"), qualname
        if "counter_model" in vars(cls):
            search = f"{qualname}.counter_model"
        assert search in reached_from(qualname, "infers"), qualname
    assert searched >= 11


def test_unguarded_write_fixture(injected_report):
    """Mixed guarded/unguarded mutation: RPR201 for the plain write,
    RPR202 for the read-modify-write, each at the seeded line."""
    hits = findings_in(injected_report, "unguarded_write_race.py")
    by_rule = {finding.rule: finding.line for finding in hits}
    assert by_rule.get("RPR201") == marker_line(
        "unguarded_write_race.py", "seeded RPR201"
    )
    assert by_rule.get("RPR202") == marker_line(
        "unguarded_write_race.py", "seeded RPR202"
    )


def test_lock_order_inversion_fixture(injected_report):
    hits = [
        finding
        for finding in findings_in(
            injected_report, "lock_order_inversion.py"
        )
        if finding.rule == "RPR203"
    ]
    assert len(hits) == 1  # the inverted pair is reported once
    assert hits[0].line == marker_line(
        "lock_order_inversion.py", "seeded RPR203"
    )
    assert "forward" in hits[0].message
    assert "backward" in hits[0].message


def test_runtime_stats_rmw_fixture(injected_report):
    """The original PR 9 pattern, re-injected: RPR202 on the facade."""
    hits = [
        finding
        for finding in findings_in(injected_report, "runtime_stats_rmw.py")
        if finding.rule == "RPR202"
    ]
    assert [finding.line for finding in hits] == [
        marker_line("runtime_stats_rmw.py", "seeded RPR202")
    ]
    assert "RUNTIME_STATS" in hits[0].message


def test_executor_escape_fixture(injected_report):
    hits = findings_in(injected_report, "executor_escape.py")
    rules = {finding.rule: finding.line for finding in hits}
    assert rules.get("RPR201") == marker_line(
        "executor_escape.py", "seeded RPR201"
    )
    assert rules.get("RPR204") == marker_line(
        "executor_escape.py", "seeded RPR204"
    )


def test_nightly_sweep_skips_injection_dir(tmp_path):
    """Sweeping a *directory* skips the seeded fixtures (the CI
    ``check tests benchmarks`` gate must stay clean); explicit files
    analyze."""
    assert checker._expand_extra([FIXTURES.parent]) == []
    one = FIXTURES / "runtime_stats_rmw.py"
    assert checker._expand_extra([one]) == [one]


def test_package_paths_add_nothing_to_the_graph(clean_report):
    """``check src/repro`` is ``check``: a path under the package root
    is already in the graph and is not added again under its stem."""
    again = checker.check(extra_paths=[checker.default_target()])
    assert again.summary == clean_report.summary


# ----------------------------------------------------------------------
# Pass 1 mechanics: certify-derived allowances + fallback edges
# ----------------------------------------------------------------------

def test_sigma2_allowances_derived_from_certifier():
    """No hand-maintained second table: the per-(semantics, entry)
    allowance comes straight from the certifier's claims."""
    # ddr/pws: ≤ coNP in every cell — nothing may dispatch Σ₂ᵖ.
    for name in ("ddr", "pws"):
        for method in ("infers", "infers_literal", "has_model"):
            assert complexity.sigma2_allowed(name, method) is False
    # The Σ₂ᵖ/Π₂ᵖ rows admit dispatch on inference...
    assert complexity.sigma2_allowed("ecwa", "infers") is True
    assert complexity.sigma2_allowed("gcwa", "infers") is True
    # ...but EXISTS-MODEL stays NP-cheap for the closure families.
    assert complexity.sigma2_allowed("gcwa", "has_model") is False
    assert complexity.sigma2_allowed("ecwa", "has_model") is False
    # Aliases fold before lookup; unknown names make no claim.
    assert complexity.sigma2_allowed("circ", "infers") is True
    assert complexity.sigma2_allowed("not_a_semantics", "infers") is None


def test_fallback_edge_annotation_cuts_reachability(tmp_path):
    """The acceptance pair: an unannotated coNP→Σ₂ᵖ dispatch is
    flagged; the same dispatch behind ``# static: fallback-edge`` (the
    resilient engine's degraded-mode shape) is not."""
    source = textwrap.dedent(
        """\
        from repro.sat.minimal import MinimalModelSolver
        from repro.semantics.base import Semantics, register


        @register
        class ProbePws(Semantics):
            name = "pws"

            def infers(self, db, formula):
                solver = MinimalModelSolver(db)
                # static: fallback-edge -- declared degraded mode
                return solver.find_minimal_satisfying(None) is not None
        """
    )
    annotated = tmp_path / "annotated_probe.py"
    annotated.write_text(source, encoding="utf-8")
    assert checker.check(extra_paths=[annotated]).findings == []

    bare = tmp_path / "bare_probe.py"
    bare.write_text(
        source.replace(
            "        # static: fallback-edge -- declared degraded mode\n",
            "",
        ),
        encoding="utf-8",
    )
    rules = {
        finding.rule
        for finding in checker.check(extra_paths=[bare]).findings
    }
    assert "RPR101" in rules


def test_resilient_fallback_is_a_declared_edge(clean_report):
    """The real degraded-mode site carries the annotation: no finding
    and no RPR100 warning points at the resilient fallback dispatch."""
    resilient = [
        finding
        for finding in clean_report.findings + clean_report.warnings
        if Path(finding.path).name == "resilient.py"
        and "fallback" in finding.message
    ]
    assert resilient == []
    source = Path("src/repro/engine/resilient.py").read_text(
        encoding="utf-8"
    )
    assert "# static: fallback-edge" in source


def test_summary_reports_primitives_and_entry_points(clean_report):
    summary = clean_report.summary["complexity"]
    assert summary["primitives"]["sigma2"] >= 5  # the minimal solvers
    assert summary["primitives"]["np"] >= 1  # SatSolver.solve
    entries = {
        (entry["semantics"], method)
        for entry in summary["semantics_entry_points"]
        for method in entry["entry_points"]
    }
    assert ("pws", "infers") in entries
    locks = clean_report.summary["races"]["lock_classes"]
    assert any("EngineCache" in name for name in locks)
    assert any("SolverPool" in name for name in locks)


# ----------------------------------------------------------------------
# Call-graph builder
# ----------------------------------------------------------------------

def build_extra(*paths):
    return CallGraph.build(package_root=None, extra_paths=list(paths))


def test_callgraph_cycles_terminate(tmp_path):
    mod = tmp_path / "cyc.py"
    mod.write_text(
        "def f():\n    return g()\n\n\ndef g():\n    return f()\n",
        encoding="utf-8",
    )
    graph = build_extra(mod)
    assert set(graph.reachable("cyc.f")) == {"cyc.f", "cyc.g"}
    assert set(graph.reachable("cyc.g")) == {"cyc.f", "cyc.g"}


def test_callgraph_decorated_defs(tmp_path):
    mod = tmp_path / "deco.py"
    mod.write_text(
        textwrap.dedent(
            """\
            def wrap(fn):
                return fn


            @wrap
            def prim():
                pass


            def user():
                return prim()
            """
        ),
        encoding="utf-8",
    )
    graph = build_extra(mod)
    assert graph.functions["deco.prim"].decorators == {"wrap"}
    assert "deco.prim" in graph.reachable("deco.user")


def test_callgraph_getattr_is_warning_not_miss(tmp_path):
    mod = tmp_path / "dyn.py"
    mod.write_text(
        textwrap.dedent(
            """\
            def by_name(obj, name):
                return getattr(obj, name)()


            def computed(table):
                return table[0]()
            """
        ),
        encoding="utf-8",
    )
    graph = build_extra(mod)
    assert graph.functions["dyn.by_name"].calls == []
    assert graph.functions["dyn.computed"].calls == []
    rules = {warning.rule for warning in graph.warnings}
    assert rules == {"RPR100"}
    # by_name warns twice (the getattr itself and the computed outer
    # call), computed once — conservatism is never silent.
    assert len(graph.warnings) == 3


def test_callgraph_constant_getattr_is_attribute_access(tmp_path):
    """``getattr(x, "m")`` with a constant name reads ``x.m``: no
    warning, and calling its result adds the same site as
    ``x.m(...)``."""
    mod = tmp_path / "const.py"
    mod.write_text(
        textwrap.dedent(
            """\
            class Worker:
                def run(self):
                    return 1

                def go(self):
                    return getattr(self, "run")()


            def spelled(obj):
                return getattr(obj, "run")()


            def plain(obj):
                return obj.run()


            def read(obj):
                return getattr(obj, "run", None)
            """
        ),
        encoding="utf-8",
    )
    graph = build_extra(mod)
    assert graph.warnings == []

    def sites(qualname):
        return [(s.kind, s.target) for s in graph.functions[qualname].calls]

    assert sites("const.Worker.go") == [("self", "run")]
    assert sites("const.spelled") == sites("const.plain") == [("attr", "run")]
    assert sites("const.read") == []


def test_callgraph_relative_imports(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "top.py").write_text(
        "def shared():\n    pass\n", encoding="utf-8"
    )
    (tmp_path / "sub" / "leaf.py").write_text(
        "from ..top import shared\n\n\ndef h():\n    return shared()\n",
        encoding="utf-8",
    )
    graph = CallGraph.build(package_root=tmp_path, package_name="pkg")
    assert "pkg.top.shared" in graph.reachable("pkg.sub.leaf.h")


def test_callgraph_late_bound_self_dispatch(tmp_path):
    mod = tmp_path / "mro.py"
    mod.write_text(
        textwrap.dedent(
            """\
            class Base:
                def run(self):
                    return self.hook()

                def hook(self):
                    return 0


            class Child(Base):
                def hook(self):
                    return 1
            """
        ),
        encoding="utf-8",
    )
    graph = build_extra(mod)
    assert graph.resolve_method("mro.Child", "run") == "mro.Base.run"
    reached = graph.reachable("mro.Base.run", self_class="mro.Child")
    assert "mro.Child.hook" in reached
    assert "mro.Base.hook" not in reached
    # Entered as Base, the same method resolves the base hook.
    reached = graph.reachable("mro.Base.run", self_class="mro.Base")
    assert "mro.Base.hook" in reached


def test_callgraph_brute_branch_pruned(tmp_path):
    mod = tmp_path / "brute.py"
    mod.write_text(
        textwrap.dedent(
            """\
            class E:
                def enum(self):
                    pass

                def fast(self):
                    pass

                def run(self):
                    if self.engine == "brute":
                        return self.enum()
                    return self.fast()
            """
        ),
        encoding="utf-8",
    )
    graph = build_extra(mod)
    sites = {
        site.target: site.brute_guarded
        for site in graph.functions["brute.E.run"].calls
    }
    assert sites == {"enum": True, "fast": False}
    pruned = graph.reachable("brute.E.run", skip_brute=True)
    assert "brute.E.fast" in pruned
    assert "brute.E.enum" not in pruned
    full = graph.reachable("brute.E.run")
    assert "brute.E.enum" in full


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_callgraph_matches_reference_reachability(tmp_path, data):
    """Random two-module call graphs: the builder's reachability must
    equal a reference BFS over the generated edge list, with zero
    dynamic-dispatch warnings (every call is a plain name)."""
    n_a = data.draw(st.integers(1, 4), label="funcs in ma")
    n_b = data.draw(st.integers(1, 4), label="funcs in mb")
    names = [f"a{i}" for i in range(n_a)] + [f"b{i}" for i in range(n_b)]
    edges = data.draw(
        st.sets(
            st.tuples(
                st.integers(0, len(names) - 1),
                st.integers(0, len(names) - 1),
            ),
            max_size=12,
        ),
        label="edges",
    )
    modules = {"ma": names[:n_a], "mb": names[n_a:]}
    sources = {}
    for mod, own in modules.items():
        other = "mb" if mod == "ma" else "ma"
        lines = [f"from {other} import {name}" for name in modules[other]]
        for name in own:
            index = names.index(name)
            body = [
                f"    {names[callee]}()"
                for caller, callee in sorted(edges)
                if caller == index
            ] or ["    pass"]
            lines.append(f"def {name}():")
            lines.extend(body)
        sources[mod] = "\n".join(lines) + "\n"
    import tempfile

    root = Path(tempfile.mkdtemp(dir=tmp_path))
    for mod, source in sources.items():
        (root / f"{mod}.py").write_text(source, encoding="utf-8")
    graph = CallGraph.build(
        package_root=None,
        extra_paths=[root / "ma.py", root / "mb.py"],
    )
    assert graph.warnings == []

    def qual(index):
        name = names[index]
        return f"{'ma' if index < n_a else 'mb'}.{name}"

    for start in range(len(names)):
        expected, queue = {start}, [start]
        while queue:
            current = queue.pop()
            for caller, callee in edges:
                if caller == current and callee not in expected:
                    expected.add(callee)
                    queue.append(callee)
        got = set(graph.reachable(qual(start)))
        assert got == {qual(index) for index in sorted(expected)}


# ----------------------------------------------------------------------
# Convention rules on resolved call targets
# ----------------------------------------------------------------------

def lint(*paths):
    """Every rule over a graph of just these files (no package)."""
    return checker.check(graph=build_extra(*paths)).findings


def test_lint_rpr004_sees_through_aliases(tmp_path):
    bad = tmp_path / "alias_loop.py"
    bad.write_text(
        textwrap.dedent(
            """\
            def drain(solver):
                step = solver.solve
                while True:
                    if not step():
                        return
            """
        ),
        encoding="utf-8",
    )
    assert [finding.rule for finding in lint(bad)] == ["RPR004"]

    chained = tmp_path / "alias_chain.py"
    chained.write_text(
        textwrap.dedent(
            """\
            def drain(solver):
                step = solver.solve
                go = step
                while True:
                    if not go():
                        return
            """
        ),
        encoding="utf-8",
    )
    assert [
        finding.rule for finding in lint(chained)
    ] == ["RPR004"]

    good = tmp_path / "alias_loop_ok.py"
    good.write_text(
        textwrap.dedent(
            """\
            def drain(solver, check_deadline):
                step = solver.solve
                while True:
                    check_deadline()
                    if not step():
                        return
            """
        ),
        encoding="utf-8",
    )
    assert lint(good) == []


#: A call target behind an import alias, and a semantics base reached
#: through a subclass: matching names in one file misses each.
BLIND_SPOTS = {
    "alias_solver.py": (
        "from repro.sat.solver import SatSolver as S\n"
        "\n"
        "\n"
        "def build():\n"
        "    return S()\n"
    ),
    "alias_stratify.py": (
        "from repro.semantics.stratification import stratify as strat\n"
        "\n"
        "\n"
        "def layers(db):\n"
        "    return strat(db)\n"
    ),
    "rogue_subclass.py": (
        "from repro.semantics.egcwa import Egcwa\n"
        "\n"
        "\n"
        "class Rogue(Egcwa):\n"
        "    name = \"rogue\"\n"
    ),
}


@pytest.fixture(scope="module")
def blind_spot_findings(tmp_path_factory):
    """``{file: [(rule, line), ...]}`` from one ``repro-ddb lint --format
    json`` run over every blind-spot file."""
    root = tmp_path_factory.mktemp("blind_spots").resolve()
    for name, source in BLIND_SPOTS.items():
        (root / name).write_text(source, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        cli_main(
            ["lint", "--format", "json"]
            + [str(root / name) for name in BLIND_SPOTS]
        )
    findings = json.loads(out.getvalue())["findings"]
    return {
        name: [
            (f["rule"], f["line"]) for f in findings
            if f["path"] == str(root / name)
        ]
        for name in BLIND_SPOTS
    }


def test_lint_rpr001_sees_through_import_aliases(blind_spot_findings):
    assert blind_spot_findings["alias_solver.py"] == [("RPR001", 5)]


def test_lint_rpr006_sees_through_import_aliases(blind_spot_findings):
    assert blind_spot_findings["alias_stratify.py"] == [("RPR006", 5)]


def test_lint_rpr005_walks_inherited_semantics_bases(blind_spot_findings):
    assert blind_spot_findings["rogue_subclass.py"] == [("RPR005", 4)]


# ----------------------------------------------------------------------
# Baseline / diff machinery
# ----------------------------------------------------------------------

def _seeded_violation(tmp_path, name="seeded.py"):
    seeded = tmp_path / name
    seeded.write_text(
        "from repro.sat.solver import SatSolver\n\n\n"
        "def build():\n"
        "    return SatSolver()\n",
        encoding="utf-8",
    )
    return seeded


def test_baseline_roundtrip_budgets_duplicates(tmp_path):
    first = Finding("RPR001", "src/repro/x.py", 3, 0, "msg")
    twin = Finding("RPR001", "src/repro/x.py", 9, 0, "msg")
    other = Finding("RPR002", "src/repro/y.py", 1, 0, "other")
    path = tmp_path / "base.json"
    baseline_mod.save_baseline([first], path)
    budget = baseline_mod.load_baseline(path)
    # Identical fingerprints are budgeted by count: one baselined,
    # the second occurrence is new; the unrelated rule is always new.
    new = baseline_mod.filter_new([first, twin, other], budget)
    assert new == [twin, other]


def test_normalize_path_strips_checkout_prefix():
    assert (
        baseline_mod.normalize_path("/home/ci/repo/src/repro/cli.py")
        == "src/repro/cli.py"
    )
    assert (
        baseline_mod.normalize_path("tests/test_static_check.py")
        == "tests/test_static_check.py"
    )


def test_lint_baseline_gates_only_new_findings(tmp_path, capsys):
    seeded = _seeded_violation(tmp_path)
    base = tmp_path / "baseline.json"
    assert cli_main(
        ["lint", str(seeded), "--write-baseline", str(base)]
    ) == 0
    capsys.readouterr()
    # Same findings, baselined: gate passes.
    assert cli_main(["lint", str(seeded), "--baseline", str(base)]) == 0
    assert "[baselined]" in capsys.readouterr().out
    # A second violation shows up as new: gate fails.
    seeded.write_text(
        seeded.read_text(encoding="utf-8")
        + "\n\ndef build_two():\n    return SatSolver()\n",
        encoding="utf-8",
    )
    assert cli_main(["lint", str(seeded), "--baseline", str(base)]) == 1


def test_check_writes_and_gates_on_a_baseline(tmp_path, capsys):
    seeded = _seeded_violation(tmp_path)
    base = tmp_path / "baseline.json"
    assert cli_main(
        ["check", str(seeded), "--write-baseline", str(base)]
    ) == 0
    assert "baseline of 1 finding(s)" in capsys.readouterr().out
    assert cli_main(["check", str(seeded), "--baseline", str(base)]) == 0


def test_changed_files_in_throwaway_git_repo(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", *args], cwd=str(tmp_path), check=True,
            capture_output=True,
        )

    try:
        git("init", "-q")
        git("config", "user.email", "ci@example.invalid")
        git("config", "user.name", "ci")
    except Exception:
        pytest.skip("git unavailable")
    tracked = tmp_path / "tracked.py"
    tracked.write_text("x = 1\n", encoding="utf-8")
    git("add", "tracked.py")
    git("commit", "-qm", "seed")
    assert baseline_mod.changed_files(tmp_path) == set()
    tracked.write_text("x = 2\n", encoding="utf-8")
    fresh = tmp_path / "fresh.py"
    fresh.write_text("y = 1\n", encoding="utf-8")
    changed = baseline_mod.changed_files(tmp_path)
    assert changed == {str(tracked.resolve()), str(fresh.resolve())}


def test_restrict_to_changed(tmp_path):
    kept_path = tmp_path / "kept.py"
    kept_path.write_text("", encoding="utf-8")
    kept = Finding("RPR001", str(kept_path), 1, 0, "m")
    dropped = Finding("RPR001", str(tmp_path / "other.py"), 1, 0, "m")
    assert baseline_mod.restrict_to_changed(
        [kept, dropped], {str(kept_path.resolve())}
    ) == [kept]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_check_rules(capsys):
    assert cli_main(["check", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RPR100", "RPR101", "RPR203", "RPR204"):
        assert rule in out


def test_cli_lint_is_check(capsys):
    """One rule catalog: ``lint`` is an alias of ``check``."""
    assert cli_main(["check", "--rules"]) == 0
    check_rules = capsys.readouterr().out
    assert cli_main(["lint", "--rules"]) == 0
    assert capsys.readouterr().out == check_rules
    assert [line.split()[0] for line in check_rules.splitlines()] == [
        "RPR001", "RPR002", "RPR004", "RPR005", "RPR006",
        "RPR100", "RPR101", "RPR102", "RPR103",
        "RPR201", "RPR202", "RPR203", "RPR204",
    ]


def test_cli_check_reports_syntax_errors(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def ok():\n    pass\n\n\ndef bad(:\n", encoding="utf-8")
    assert cli_main(["check", str(broken)]) == 1
    out = capsys.readouterr().out
    assert f"{broken.resolve()}:5:" in out
    assert "RPR000 syntax error" in out


def test_cli_check_flags_fixture_and_gate(capsys):
    fixture = FIXTURES / "runtime_stats_rmw.py"
    assert cli_main(["check", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "RPR202" in out
    assert "runtime_stats_rmw.py" in out


def test_checker_waiver_suppresses(tmp_path):
    waived = tmp_path / "waived_rmw.py"
    waived.write_text(
        "from repro.runtime.budget import RUNTIME_STATS\n"
        "\n"
        "\n"
        "def tick():\n"
        "    # lint: ok RPR202 -- exercised single-threaded only\n"
        "    RUNTIME_STATS.budgets_exceeded += 1\n",
        encoding="utf-8",
    )
    assert checker.check(extra_paths=[waived]).findings == []
