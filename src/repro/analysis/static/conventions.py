"""Convention rules — the local disciplines the oracle accounting rests on.

The runtime certifier (:mod:`repro.obs.certify`) can only certify code
paths that route through its accounting; these rules keep that
accounting complete.  The checker runs them beside Pass 1 and Pass 2,
over the trees the call graph already parsed.  Their scope is the
package plus files named explicitly: a directory sweep adds modules to
the two passes only (:attr:`~.callgraph.ModuleInfo.swept`).

====== ==============================================================
Rule   Convention enforced
====== ==============================================================
RPR001 No ad-hoc ``SatSolver()`` construction outside the sanctioned
       modules (``repro/sat/solver.py`` one-shot helpers and the
       pooled ``repro/sat/incremental.py``) — stray solvers bypass
       pooling *and* the per-query oracle accounting.
RPR002 Every function named ``find_minimal_satisfying`` (the Σ₂ᵖ
       primitive) must be decorated ``@counts_as_sigma2_dispatch`` so
       each realization site is wrapped in oracle accounting.
RPR004 Every ``while`` loop that issues ``solve()`` calls must thread
       a ``check_deadline()`` through its body, so unbounded solver
       loops stay responsive to session budgets.
RPR005 Every ``Semantics`` subclass declaring a ``name`` must be
       ``@register``-ed and (after alias folding) carry a Table 1/2
       row claim — a semantics outside the tables silently escapes
       certification.
RPR006 No direct ``stratify()`` calls outside the implementing module
       and the engine cache — use the memoized accessors so the
       analyzer, the planner and the semantics share one
       stratification per database.
====== ==============================================================

Call rules match the last component of the call target as the graph
resolves it, so ``from repro.sat.solver import SatSolver as S; S()``
is an ad-hoc solver too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

from repro.complexity import ROW_ORDER
from repro.obs.certify import canonical_name

from .callgraph import CallGraph, Finding, ModuleInfo, _decorator_name, _dotted
from .complexity import SIGMA2_DECORATOR, semantics_classes

#: Modules allowed to construct ``SatSolver`` directly (RPR001): the
#: one-shot helper module and the pooled incremental layer.
SANCTIONED_SOLVER_MODULES = (
    "repro/sat/solver.py",
    "repro/sat/incremental.py",
)

#: Modules allowed to call ``stratify`` directly (RPR006): the
#: implementation and the cache that memoizes it.
SANCTIONED_STRATIFY_MODULES = (
    "repro/semantics/stratification.py",
    "repro/engine/cache.py",
)

#: Call target name -> (rule, sanctioned modules, message).
_CALL_RULES = {
    "SatSolver": (
        "RPR001",
        SANCTIONED_SOLVER_MODULES,
        "ad-hoc SatSolver() construction; use the one-shot helpers in "
        "repro.sat.solver or pooled_scope()/acquire_solver() from "
        "repro.sat.incremental",
    ),
    "stratify": (
        "RPR006",
        SANCTIONED_STRATIFY_MODULES,
        "direct stratify() call; use the memoized stratification_for()/"
        "require_stratification() accessors so analyses share one "
        "result per database",
    ),
}


def _target_name(graph: CallGraph, module: ModuleInfo, call: ast.Call) -> str:
    """The last component of a call target as the graph resolves it
    (``S()`` after ``from ... import SatSolver as S`` -> ``SatSolver``)."""
    func = call.func
    dotted = _dotted(func)
    if dotted is not None:
        return (graph.qualify(module, dotted) or dotted).rsplit(".", 1)[-1]
    return func.attr if isinstance(func, ast.Attribute) else ""


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class
    definitions — code there runs in its own dynamic context."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _resolve(aliases: Dict[str, str], name: str) -> str:
    """Follow simple local aliases (``step = solver.solve`` / ``go =
    step``) to the rightmost underlying name."""
    seen: Set[str] = set()
    while name in aliases and name not in seen:
        seen.add(name)
        name = aliases[name]
    return name


def _module_rules(graph: CallGraph, module: ModuleInfo) -> Iterator[Finding]:
    """RPR001, RPR004 and RPR006 in one walk over a module's tree."""
    posix = Path(module.path).as_posix()
    aliases: Dict[str, str] = {}
    loops: List[ast.While] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = _target_name(graph, module, node)
            if name in _CALL_RULES:
                rule, sanctioned, message = _CALL_RULES[name]
                if not posix.endswith(sanctioned):
                    yield Finding(
                        rule, module.path, node.lineno, node.col_offset,
                        message,
                    )
        elif isinstance(node, ast.While):
            loops.append(node)
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            if isinstance(node.value, ast.Attribute):
                aliases[node.targets[0].id] = node.value.attr
            elif isinstance(node.value, ast.Name):
                aliases[node.targets[0].id] = node.value.id
    for loop in loops:
        calls: Set[str] = set()
        for inner in _walk_same_scope(loop):
            if not isinstance(inner, ast.Call):
                continue
            calls.add(_target_name(graph, module, inner))
            if isinstance(inner.func, ast.Name):
                calls.add(_resolve(aliases, inner.func.id))
        if "solve" in calls and "check_deadline" not in calls:
            yield Finding(
                "RPR004", module.path, loop.lineno, loop.col_offset,
                "while-loop issues solve() without check_deadline(); "
                "unbounded solver loops must stay responsive to "
                "session budgets",
            )


def check_conventions(graph: CallGraph) -> List[Finding]:
    """Run the convention rules over the package and named files."""
    modules = [m for m in graph.modules.values() if not m.swept]
    scope = {module.path for module in modules}
    findings = [
        finding
        for module in modules
        for finding in _module_rules(graph, module)
    ]
    for fn in graph.functions.values():
        if (
            fn.path in scope
            and fn.name == "find_minimal_satisfying"
            and SIGMA2_DECORATOR not in fn.decorators
        ):
            findings.append(
                Finding(
                    "RPR002", fn.path, fn.lineno, 0,
                    "find_minimal_satisfying realizes the Σ₂ᵖ primitive "
                    "and must be decorated @counts_as_sigma2_dispatch",
                )
            )
    for qualname, declared in semantics_classes(graph):
        info = graph.classes[qualname]
        node = info.node
        if node is None or info.path not in scope:
            continue
        if "register" not in {_decorator_name(d) for d in node.decorator_list}:
            findings.append(
                Finding(
                    "RPR005", info.path, node.lineno, node.col_offset,
                    f"Semantics subclass {node.name} declares "
                    f"name={declared!r} but is not @register-ed",
                )
            )
        elif canonical_name(declared) not in ROW_ORDER:
            findings.append(
                Finding(
                    "RPR005", info.path, node.lineno, node.col_offset,
                    f"semantics {declared!r} carries no Table 1/2 row "
                    "claim; queries against it escape complexity "
                    "certification",
                )
            )
    return findings
