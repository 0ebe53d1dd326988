"""Pass 1 — complexity reachability over the whole-program call graph.

The runtime certifier (:mod:`repro.obs.certify`) checks every query's
*observed* oracle counters against its Table 1/2 cell; this pass proves
the same discipline on paths no test exercises, by classifying the
primitive realization sites in the graph and asking, for every
``@register``-ed semantics entry point, whether the set of *statically
reachable* primitives is consistent with the cell's class:

* **NP sites** — functions that tick :func:`repro.runtime.observe_sat_call`
  / :func:`repro.obs.accounting.note_np_call` (the CDCL ``solve()``);
* **Σ₂ᵖ sites** — functions decorated ``@counts_as_sigma2_dispatch`` or
  entering :func:`~repro.obs.accounting.sigma2_dispatch` /
  :func:`~repro.obs.accounting.note_sigma2_dispatch` (the
  ``find_minimal_satisfying`` realizations and the witness machines);
* **EXP sites** — brute enumerators ticking
  :func:`~repro.runtime.budget.note_nodes`.

The allowed-primitive set per (semantics, entry point) is **derived
from the certifier's own claims** — :meth:`repro.obs.certify.Certifier.
claim_for` over both regimes, admitting Σ₂ᵖ reachability exactly when
some regime's envelope grants a nonzero Σ₂ᵖ dispatch budget — so there
is no hand-maintained second table to drift.

Rules:

====== ===============================================================
RPR101 A semantics entry point whose every Table 1/2 cell forbids Σ₂ᵖ
       dispatch (coNP and below) statically reaches a Σ₂ᵖ primitive:
       three helper calls deep is as much a violation as a direct
       call.
RPR102 A coNP-classified semantics module (every Table 1/2 upper bound
       ≤ coNP — currently ``ddr`` and ``pws``) references Σ₂ᵖ
       machinery (an import, name or attribute naming a public Σ₂ᵖ
       primitive, a class defining one, or a dispatch hook), or any
       function defined there reaches a Σ₂ᵖ primitive.
RPR103 A Σ₂ᵖ primitive realization statically reaches another Σ₂ᵖ
       primitive through resolved edges — a dispatch-depth-2 machine,
       which every Π₂ᵖ/Θ₃ᵖ envelope (``max_sigma2_depth = 1``) forbids.
====== ===============================================================

Escapes the traversal honors (both documented in the guide):

* ``if <...>.engine == "brute":`` branches — brute execution is
  certified against the node envelope, not the oracle envelopes;
* ``# static: fallback-edge`` annotations — explicitly declared
  degraded-mode edges (the resilient engine's brute fallback, the
  planner's never-worse default).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.complexity import ROW_ORDER
from repro.complexity.classes import CC, Regime, Task
from repro.obs.certify import TASK_FOR_METHOD, Certifier, canonical_name

from .callgraph import CallGraph, Finding, ModuleInfo

#: Function names whose *call* marks the enclosing definition as a
#: primitive realization of each kind.
NP_TICKS = frozenset({"observe_sat_call", "note_np_call"})
SIGMA2_TICKS = frozenset({"sigma2_dispatch", "note_sigma2_dispatch"})
EXP_TICKS = frozenset({"note_nodes"})

#: Σ₂ᵖ primitive marker decorator.
SIGMA2_DECORATOR = "counts_as_sigma2_dispatch"

#: Entry-point methods certified per query (the session maps them to
#: the paper's tasks; ``model_set`` is a materialization API, not a
#: Table 1/2 decision problem, and stays out of scope).
ENTRY_METHODS = ("infers", "infers_literal", "has_model")

#: Base-class names that mark a semantics implementation.
SEMANTICS_BASES = frozenset({"Semantics", "PartitionedSemantics"})


def classify_primitives(graph: CallGraph) -> Dict[str, str]:
    """``{qualname: "np"|"sigma2"|"exp"}`` for every primitive site."""
    kinds: Dict[str, str] = {}
    for qualname, fn in graph.functions.items():
        # Direct sites carry qualified targets; ticks match by tail.
        names = {site.target.rsplit(".", 1)[-1] for site in fn.calls}
        if SIGMA2_DECORATOR in fn.decorators or names & SIGMA2_TICKS:
            kinds[qualname] = "sigma2"
        elif names & NP_TICKS:
            kinds[qualname] = "np"
        elif names & EXP_TICKS:
            kinds[qualname] = "exp"
    return kinds


def sigma2_machinery(
    graph: CallGraph, primitives: Dict[str, str]
) -> FrozenSet[str]:
    """Names a coNP semantics module must not reference: the dispatch
    hooks, every public Σ₂ᵖ primitive defined at module or class level,
    and every class that defines a Σ₂ᵖ primitive."""
    names = set(SIGMA2_TICKS) | {SIGMA2_DECORATOR}
    for qualname, kind in primitives.items():
        if kind != "sigma2":
            continue
        fn = graph.functions[qualname]
        if fn.cls is not None:
            names.add(fn.cls.rsplit(".", 1)[-1])
        owner = qualname.rsplit(".", 1)[0]
        if not fn.name.startswith("_") and owner in (fn.module, fn.cls):
            names.add(fn.name)
    return frozenset(names)


def conp_semantics() -> FrozenSet[str]:
    """Semantics whose every Table 1/2 upper bound is ≤ coNP, derived
    from the certifier's claims."""
    low = {CC.CONSTANT, CC.P, CC.NP, CC.CONP}
    names = []
    for name in ROW_ORDER:
        uppers = set()
        for task in Task:
            for regime in Regime:
                try:
                    uppers.add(Certifier.claim_for(name, task, regime).upper)
                except KeyError:
                    continue
        if uppers and uppers <= low:
            names.append(name)
    return frozenset(names)


def sigma2_allowed(semantics: str, method: str) -> Optional[bool]:
    """May this (semantics, entry point) dispatch the Σ₂ᵖ primitive?

    Derived from the certifier's claims: allowed iff *some* regime's
    envelope for the cell grants a nonzero Σ₂ᵖ dispatch budget (the
    regime is a per-database property the static pass cannot know, so
    it takes the union — sound, never over-strict).  ``None`` when the
    semantics has no table claim (comparison semantics like ``cwa``
    escape Pass 1 exactly as they escape certification).
    """
    task = TASK_FOR_METHOD.get(method)
    if task is None:
        return None
    name = canonical_name(semantics)
    any_claim = False
    for regime in Regime:
        try:
            envelope = Certifier.envelope_for(
                name, task, regime, engine="oracle"
            )
        except KeyError:
            continue
        any_claim = True
        if envelope is not None and envelope.sigma2_dispatches.limit(1) > 0:
            return True
    return False if any_claim else None


def semantics_classes(
    graph: CallGraph,
) -> List[Tuple[str, str]]:
    """``(class_qualname, declared_name)`` for every class that subclasses
    a semantics base (transitively, in-graph or by bare base name) and
    declares a string ``name``."""
    found: List[Tuple[str, str]] = []
    for qualname, info in graph.classes.items():
        if info.node is None:
            continue
        bases: Set[str] = set()
        for cls in graph.mro(qualname):
            for base in graph.classes[cls].bases:
                bases.add(base.rsplit(".", 1)[-1])
        if not bases & SEMANTICS_BASES:
            continue
        declared = None
        for statement in info.node.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "name"
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                declared = statement.value.value
        if declared:
            found.append((qualname, declared))
    return found


def _sigma2_hit(
    graph: CallGraph,
    parents,
    primitives: Dict[str, str],
) -> Optional[str]:
    for reached in parents:
        if primitives.get(reached) == "sigma2":
            return reached
    return None


def _machinery_references(
    module: ModuleInfo, machinery: FrozenSet[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        refs: List[Tuple[str, int, int]] = []
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, node.col_offset))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, node.col_offset))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # ast.alias carries no position before Python 3.10.
            refs.extend(
                (
                    alias.name.rsplit(".", 1)[-1],
                    getattr(alias, "lineno", node.lineno),
                    getattr(alias, "col_offset", node.col_offset),
                )
                for alias in node.names
            )
        for name, line, col in refs:
            if name in machinery:
                findings.append(
                    Finding(
                        "RPR102", module.path, line, col,
                        f"coNP-classified semantics module references "
                        f"Σ₂ᵖ machinery ({name}); the certified envelope "
                        "forbids minimal-model dispatch here",
                    )
                )
    return findings


def check_complexity(graph: CallGraph) -> List[Finding]:
    """Run Pass 1 over a built graph."""
    findings: List[Finding] = []
    primitives = classify_primitives(graph)

    # RPR101 — entry-point envelope consistency.
    for cls_qualname, declared in semantics_classes(graph):
        for method in ENTRY_METHODS:
            allowed = sigma2_allowed(declared, method)
            if allowed is not False:
                continue  # Σ₂ᵖ admitted or no claim: nothing to prove
            start = graph.resolve_method(cls_qualname, method)
            if start is None:
                continue
            parents = graph.reachable(
                start,
                self_class=cls_qualname,
                skip_brute=True,
                skip_fallback=True,
            )
            hit = _sigma2_hit(graph, parents, primitives)
            if hit is None:
                continue
            entry = graph.functions[start]
            path = " -> ".join(graph.witness_path(parents, hit))
            anchor = graph.classes[cls_qualname]
            findings.append(
                Finding(
                    "RPR101",
                    entry.path if entry.cls == cls_qualname
                    else anchor.path,
                    entry.lineno if entry.cls == cls_qualname
                    else anchor.lineno,
                    0,
                    f"semantics {declared!r} entry point {method}() is "
                    f"classified <= coNP for every regime but statically "
                    f"reaches the Σ₂ᵖ primitive {hit} "
                    f"[{path}]; route the call through an annotated "
                    f"fallback edge or fix the dispatch",
                )
            )

    # RPR102 — coNP semantics modules: no reference to Σ₂ᵖ machinery,
    # and no function reaching a Σ₂ᵖ primitive.
    conp_modules = tuple(
        f"repro/semantics/{name}.py" for name in sorted(conp_semantics())
    )
    machinery = sigma2_machinery(graph, primitives)
    for module in graph.modules.values():
        if Path(module.path).as_posix().endswith(conp_modules):
            findings += _machinery_references(module, machinery)
    for qualname, fn in graph.functions.items():
        if not Path(fn.path).as_posix().endswith(conp_modules):
            continue
        parents = graph.reachable(
            qualname, skip_brute=True, skip_fallback=True
        )
        hit = _sigma2_hit(graph, parents, primitives)
        if hit is not None:
            path = " -> ".join(graph.witness_path(parents, hit))
            findings.append(
                Finding(
                    "RPR102", fn.path, fn.lineno, 0,
                    f"{qualname} lives in a coNP-classified semantics "
                    f"module but statically reaches the Σ₂ᵖ primitive "
                    f"{hit} [{path}]",
                )
            )

    # RPR103 — statically nested Σ₂ᵖ dispatch (resolved edges only:
    # the attr-name over-approximation would fake nesting between
    # same-named methods of unrelated solvers).
    for qualname, kind in sorted(primitives.items()):
        if kind != "sigma2":
            continue
        fn = graph.functions[qualname]
        parents = graph.reachable(
            qualname,
            skip_brute=True,
            skip_fallback=True,
            include_attr_matches=False,
        )
        for reached in parents:
            if reached == qualname:
                continue
            if primitives.get(reached) == "sigma2":
                path = " -> ".join(graph.witness_path(parents, reached))
                findings.append(
                    Finding(
                        "RPR103", fn.path, fn.lineno, 0,
                        f"Σ₂ᵖ primitive {qualname} statically reaches "
                        f"Σ₂ᵖ primitive {reached} [{path}] — a nested "
                        "dispatch, which the depth-1 envelopes forbid",
                    )
                )
    return findings


def summarize(graph: CallGraph) -> Dict[str, object]:
    """Machine-readable Pass 1 summary for the JSON report."""
    primitives = classify_primitives(graph)
    by_kind: Dict[str, List[str]] = {"np": [], "sigma2": [], "exp": []}
    for qualname, kind in sorted(primitives.items()):
        by_kind[kind].append(qualname)
    entries: List[Dict[str, object]] = []
    for cls_qualname, declared in sorted(semantics_classes(graph)):
        methods = {}
        for method in ENTRY_METHODS:
            allowed = sigma2_allowed(declared, method)
            if allowed is None:
                continue
            methods[method] = {"sigma2_allowed": allowed}
        if methods:
            entries.append(
                {
                    "class": cls_qualname,
                    "semantics": declared,
                    "entry_points": methods,
                }
            )
    return {
        "functions": len(graph.functions),
        "classes": len(graph.classes),
        "primitives": {k: len(v) for k, v in by_kind.items()},
        "sigma2_sites": by_kind["sigma2"],
        "semantics_entry_points": entries,
        "dynamic_warnings": len(graph.warnings),
    }
