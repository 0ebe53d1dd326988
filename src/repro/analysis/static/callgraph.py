"""Import-aware call graph over the ``repro`` package AST.

The static analyzer (:mod:`repro.analysis.static.checker`) needs one
structure every rule can share: *who can call whom*, resolved as
precisely as plain-AST analysis allows and **conservative everywhere
else**.  The builder parses every module under a package root once
(plus any extra files, e.g. the seeded injection fixtures), records

* module import tables (``import a.b as c`` / ``from ..x import y``,
  with relative imports resolved against the importing package),
* every function and method definition (qualified
  ``pkg.mod.Class.meth``), decorator names, and class bases,
* every call site inside each definition, classified by how much the
  AST tells us about the target:

  ========== ========================================================
  kind       resolution
  ========== ========================================================
  direct     ``f(...)`` where ``f`` is a local def, a module-level
             def, or an import — resolved to a qualified name
  self       ``self.m(...)`` — resolved against the MRO of the class
             the traversal entered with (late binding preserved)
  super      ``super().m(...)`` — resolved against the declared bases
  class      ``Cls(...)`` / ``Cls.m(...)`` — constructor or method
  attr       ``obj.m(...)`` with an unresolvable receiver — matched
             *by method name* against every in-graph definition
             (deliberate over-approximation; soundness over precision);
             ``getattr(obj, "m")(...)`` with a constant name is the
             same site
  dynamic    ``getattr(x, n)`` / ``f()()`` — no edge; recorded as an
             RPR100 *warning* so conservatism is documented, never a
             silent miss
  ========== ========================================================

A file that does not parse is left out of the graph and recorded as an
RPR000 finding.

Two edge attributes matter to the complexity pass:

* ``brute_guarded`` — the call site sits inside an
  ``if <...>.engine == "brute":`` branch.  Brute execution is certified
  against the exponential *node* envelope, not the oracle envelopes
  (see :mod:`repro.obs.certify`), so pass 1 prunes these edges.
* ``fallback`` — the source line (or the line above) carries a
  ``# static: fallback-edge`` annotation: an explicitly declared
  degraded-mode edge (the resilient engine's brute fallback, the
  planner's never-worse default) that reachability must not follow.

Module-level singleton instances (``NAME = ClassName(...)``) are
indexed for the race pass (:mod:`repro.analysis.static.races`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Annotation marking an explicitly declared degraded-mode call edge.
FALLBACK_MARK = "# static: fallback-edge"

#: Call-target kinds that resolve to a *specific* definition (used by
#: rules that must avoid the ``attr`` name-matching over-approximation).
RESOLVED_KINDS = frozenset({"direct", "self", "super", "class"})


@dataclass(frozen=True)
class Finding:
    """One rule violation (or RPR100 warning), pinned to a source
    position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    kind: str  #: direct | self | super | class | attr | dynamic
    target: str  #: qualified name (direct/class) or bare attr name
    lineno: int
    col: int
    brute_guarded: bool = False
    fallback: bool = False


@dataclass
class FunctionNode:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    lineno: int
    name: str
    cls: Optional[str] = None  #: owning class qualname, if a method
    decorators: Set[str] = field(default_factory=set)
    calls: List[CallSite] = field(default_factory=list)
    node: Optional[ast.AST] = field(default=None, repr=False)


@dataclass
class ClassInfo:
    """One class definition: declared bases and direct methods."""

    qualname: str
    module: str
    path: str
    lineno: int
    name: str
    bases: List[str] = field(default_factory=list)  #: qualified or bare
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> fn qualname
    node: Optional[ast.ClassDef] = field(default=None, repr=False)


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)
    #: joined through a directory sweep (outside the convention rules)
    swept: bool = False


def _decorator_name(dec: ast.AST) -> str:
    if isinstance(dec, ast.Call):
        dec = dec.func
    if isinstance(dec, ast.Attribute):
        return dec.attr
    if isinstance(dec, ast.Name):
        return dec.id
    return ""


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _constant_getattr(node: ast.AST) -> Optional[Tuple[ast.expr, str]]:
    """``(x, "name")`` for ``getattr(x, "name"[, default])``, else
    ``None``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    ):
        return node.args[0], node.args[1].value
    return None


def _is_brute_test(test: ast.AST) -> bool:
    """Does a branch condition compare ``<...>.engine`` (or ``engine``)
    against the constant ``"brute"`` with ``==``?"""
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Eq):
            continue
        sides = [node.left] + list(node.comparators)
        mentions_engine = any(
            (isinstance(s, ast.Attribute) and s.attr == "engine")
            or (isinstance(s, ast.Name) and s.id == "engine")
            for s in sides
        )
        mentions_brute = any(
            isinstance(s, ast.Constant) and s.value == "brute"
            for s in sides
        )
        if mentions_engine and mentions_brute:
            return True
    return False


class CallGraph:
    """The whole-program structure both checker passes query."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare method/function name -> every qualname defining it.
        self.by_name: Dict[str, List[str]] = {}
        #: module-level singleton instances: qualname -> class qualname.
        self.singletons: Dict[str, str] = {}
        #: dynamic-dispatch conservatism warnings (rule RPR100).
        self.warnings: List[Finding] = []
        #: files that failed to parse (rule RPR000).
        self.errors: List[Finding] = []

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        package_root: Optional[Path] = None,
        package_name: str = "repro",
        extra_paths: Sequence[Path] = (),
        swept_paths: Sequence[Path] = (),
    ) -> "CallGraph":
        """Parse a package tree plus extra files into a graph.

        ``swept_paths`` are files a directory sweep found; their modules
        are marked :attr:`ModuleInfo.swept`.  An extra file under the
        package root is already in the graph and adds nothing.
        """
        graph = cls()
        files: List[Tuple[str, Path, bool]] = []
        root: Optional[Path] = None
        if package_root is not None:
            root = Path(package_root).resolve()
            for path in sorted(root.rglob("*.py")):
                rel = path.relative_to(root).with_suffix("")
                parts = [package_name] + list(rel.parts)
                if parts[-1] == "__init__":
                    parts.pop()
                files.append((".".join(parts), path, False))
        for swept, paths in ((False, extra_paths), (True, swept_paths)):
            for path in map(Path, paths):
                path = path.resolve()
                if root is None or root not in path.parents:
                    files.append((path.stem, path, swept))
        for name, path, swept in files:
            graph._add_module(name, path, swept)
        for module in graph.modules.values():
            graph._collect_defs(module)
        for module in graph.modules.values():
            graph._collect_calls(module)
        return graph

    def _add_module(self, name: str, path: Path, swept: bool) -> None:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            self.errors.append(
                Finding(
                    "RPR000", str(path), error.lineno or 1,
                    error.offset or 0, f"syntax error: {error.msg}",
                )
            )
            return
        info = ModuleInfo(
            name=name, path=str(path), tree=tree,
            lines=source.splitlines(), swept=swept,
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    info.imports[local] = (
                        alias.name if alias.asname else
                        alias.name.split(".", 1)[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(info.name, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}"
        self.modules[name] = info

    @staticmethod
    def _resolve_from(module: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        # ``from . import x`` in pkg.mod: level 1 strips the module
        # name; each further level strips one package.
        if len(parts) < node.level:
            return node.module
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else node.module

    def _register_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        qualname: str,
        cls: Optional[str],
    ) -> None:
        fn = FunctionNode(
            qualname=qualname,
            module=module.name,
            path=module.path,
            lineno=node.lineno,
            name=node.name,
            cls=cls,
            decorators={
                _decorator_name(d) for d in node.decorator_list
            } - {""},
            node=node,
        )
        self.functions[qualname] = fn
        self.by_name.setdefault(node.name, []).append(qualname)

    def _collect_defs(self, module: ModuleInfo) -> None:
        def visit(body, prefix: str, cls: Optional[str]) -> None:
            for node in body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qualname = f"{prefix}.{node.name}"
                    self._register_function(module, node, qualname, cls)
                    visit(node.body, qualname, None)
                elif isinstance(node, ast.ClassDef):
                    qualname = f"{prefix}.{node.name}"
                    info = ClassInfo(
                        qualname=qualname,
                        module=module.name,
                        path=module.path,
                        lineno=node.lineno,
                        name=node.name,
                        node=node,
                    )
                    for base in node.bases:
                        text = _dotted(base)
                        if text is None:
                            continue
                        info.bases.append(
                            self.qualify(module, text) or text
                        )
                    self.classes[qualname] = info
                    visit(node.body, qualname, qualname)
                    for child in node.body:
                        if isinstance(
                            child,
                            (ast.FunctionDef, ast.AsyncFunctionDef),
                        ):
                            info.methods[child.name] = (
                                f"{qualname}.{child.name}"
                            )

        visit(module.tree.body, module.name, None)
        # Module-level singleton instances: NAME = ClassName(...).
        for node in module.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            text = _dotted(node.value.func)
            if text is None:
                continue
            target_cls = self.qualify(module, text)
            if target_cls in self.classes:
                self.singletons[
                    f"{module.name}.{node.targets[0].id}"
                ] = target_cls

    def qualify(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve a dotted reference through the import table and the
        module's own top-level definitions."""
        head, _, tail = dotted.partition(".")
        local = f"{module.name}.{head}"
        if local in self.classes or local in self.functions:
            return f"{local}.{tail}" if tail else local
        if head in module.imports:
            base = module.imports[head]
            return f"{base}.{tail}" if tail else base
        return None

    # -- call collection -------------------------------------------------

    def _collect_calls(self, module: ModuleInfo) -> None:
        for fn in self.functions.values():
            if fn.module != module.name or fn.node is None:
                continue
            local_defs = {
                child.name: f"{fn.qualname}.{child.name}"
                for child in ast.walk(fn.node)
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                and child is not fn.node
            }
            self._walk_body(module, fn, fn.node, local_defs, brute=False)

    def _walk_body(
        self,
        module: ModuleInfo,
        fn: FunctionNode,
        root: ast.AST,
        local_defs: Dict[str, str],
        brute: bool,
    ) -> None:
        for node in ast.iter_child_nodes(root):
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue  # nested defs are their own nodes
            if isinstance(node, ast.If) and _is_brute_test(node.test):
                for child in node.body:
                    self._walk_body(
                        module, fn, child, local_defs, brute=True
                    )
                    self._visit_call(module, fn, child, local_defs, True)
                for child in node.orelse:
                    self._walk_body(
                        module, fn, child, local_defs, brute=brute
                    )
                    self._visit_call(module, fn, child, local_defs, brute)
                continue
            self._visit_call(module, fn, node, local_defs, brute)
            self._walk_body(module, fn, node, local_defs, brute)

    def _visit_call(
        self,
        module: ModuleInfo,
        fn: FunctionNode,
        node: ast.AST,
        local_defs: Dict[str, str],
        brute: bool,
    ) -> None:
        if not isinstance(node, ast.Call):
            return
        fallback = self._has_fallback_mark(module, node.lineno)
        func = node.func
        read = _constant_getattr(func)
        if read is not None:  # getattr(x, "m")(...) calls x.m(...)
            func = ast.Attribute(value=read[0], attr=read[1])
        site = None
        if isinstance(func, ast.Name):
            name = func.id
            if name == "getattr":
                # A constant name reads an attribute, and a declared
                # edge needs no warning.
                if _constant_getattr(node) is None and not fallback:
                    self._warn_dynamic(fn, node, "getattr(...) dispatch")
                return
            target = local_defs.get(name) or self.qualify(module, name)
            if target is None:
                return  # builtin / external — no edge
            kind = "class" if target in self.classes else "direct"
            site = CallSite(
                kind, target, node.lineno, node.col_offset, brute,
                fallback,
            )
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                site = CallSite(
                    "self", func.attr, node.lineno, node.col_offset,
                    brute, fallback,
                )
            elif (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
            ):
                site = CallSite(
                    "super", func.attr, node.lineno, node.col_offset,
                    brute, fallback,
                )
            else:
                dotted = _dotted(func)
                target = (
                    self.qualify(module, dotted) if dotted else None
                )
                if target is not None and (
                    target in self.functions or target in self.classes
                ):
                    kind = "class" if target in self.classes else "direct"
                    site = CallSite(
                        kind, target, node.lineno, node.col_offset,
                        brute, fallback,
                    )
                elif target is not None and (
                    target.rsplit(".", 1)[0] in self.classes
                ):
                    # Cls.method(...) on an in-graph class.
                    site = CallSite(
                        "direct", target, node.lineno, node.col_offset,
                        brute, fallback,
                    )
                elif func.attr in self.by_name:
                    site = CallSite(
                        "attr", func.attr, node.lineno,
                        node.col_offset, brute, fallback,
                    )
                else:
                    return  # external method — no edge
        else:
            if not fallback:
                self._warn_dynamic(fn, node, "computed call target")
            return
        fn.calls.append(site)

    def _has_fallback_mark(self, module: ModuleInfo, lineno: int) -> bool:
        for candidate in (lineno, lineno - 1):
            if 1 <= candidate <= len(module.lines):
                if FALLBACK_MARK in module.lines[candidate - 1]:
                    return True
        return False

    def _warn_dynamic(
        self, fn: FunctionNode, node: ast.Call, what: str
    ) -> None:
        self.warnings.append(
            Finding(
                "RPR100", fn.path, node.lineno, node.col_offset,
                f"dynamic call in {fn.qualname} ({what}): target not "
                "statically resolvable; reachability is conservative "
                "here (documented, not silently missed)",
            )
        )

    # -- resolution ------------------------------------------------------

    def mro(self, cls_qualname: str) -> List[str]:
        """The in-graph linearization of a class (C3 not needed — the
        tree uses single inheritance plus mixin-free bases)."""
        order: List[str] = []
        stack = [cls_qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.classes[current].bases)
        return order

    def resolve_method(
        self, cls_qualname: str, name: str
    ) -> Optional[str]:
        for cls in self.mro(cls_qualname):
            method = self.classes[cls].methods.get(name)
            if method is not None:
                return method
        return None

    def callees(
        self,
        fn: FunctionNode,
        self_class: Optional[str],
        site: CallSite,
        include_attr_matches: bool = True,
    ) -> Iterator[Tuple[str, Optional[str]]]:
        """Yield ``(callee_qualname, callee_self_class)`` for one site.

        ``self_class`` is the dynamic receiver class of the traversal
        (so inherited methods resolve ``self.x`` against the *concrete*
        class, not the defining one).
        """
        if site.kind == "direct":
            target = site.target
            if target in self.functions:
                yield target, self.functions[target].cls
            return
        if site.kind == "class":
            init = self.resolve_method(site.target, "__init__")
            if init is not None:
                yield init, site.target
            return
        if site.kind == "self":
            cls = self_class or fn.cls
            if cls is None:
                return
            method = self.resolve_method(cls, site.target)
            if method is not None:
                yield method, cls
            return
        if site.kind == "super":
            cls = fn.cls  # super() binds to the *defining* class
            if cls is None:
                return
            for base in self.classes.get(cls, ClassInfo(
                "", "", "", 0, ""
            )).bases:
                method = self.resolve_method(base, site.target)
                if method is not None:
                    yield method, self_class or cls
                    return
            return
        if site.kind == "attr" and include_attr_matches:
            for qualname in self.by_name.get(site.target, ()):
                callee = self.functions[qualname]
                yield qualname, callee.cls

    def reachable(
        self,
        start: str,
        self_class: Optional[str] = None,
        skip_brute: bool = False,
        skip_fallback: bool = False,
        include_attr_matches: bool = True,
    ) -> Dict[str, Tuple[Optional[str], Optional[CallSite]]]:
        """BFS from one definition.

        Returns ``{qualname: (caller_qualname, via_site)}`` for every
        reached definition (the start maps to ``(None, None)``), so
        callers can rebuild witness paths.
        """
        if start not in self.functions:
            return {}
        parents: Dict[str, Tuple[Optional[str], Optional[CallSite]]] = {
            start: (None, None)
        }
        contexts: Dict[str, Optional[str]] = {
            start: self_class or self.functions[start].cls
        }
        queue = [start]
        while queue:
            current = queue.pop(0)
            fn = self.functions[current]
            ctx = contexts[current]
            for site in fn.calls:
                if skip_brute and site.brute_guarded:
                    continue
                if skip_fallback and site.fallback:
                    continue
                for callee, callee_ctx in self.callees(
                    fn, ctx, site,
                    include_attr_matches=include_attr_matches,
                ):
                    if callee in parents:
                        continue
                    parents[callee] = (current, site)
                    contexts[callee] = callee_ctx
                    queue.append(callee)
        return parents

    def witness_path(
        self,
        parents: Dict[str, Tuple[Optional[str], Optional[CallSite]]],
        target: str,
    ) -> List[str]:
        """``start -> ... -> target`` as rendered hops."""
        hops: List[str] = []
        current: Optional[str] = target
        while current is not None:
            caller, site = parents[current]
            fn = self.functions[current]
            hops.append(f"{current} ({Path(fn.path).name}:{fn.lineno})")
            current = caller
        return list(reversed(hops))
