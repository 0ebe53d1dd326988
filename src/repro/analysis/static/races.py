"""Pass 2 — lock-discipline race detection over the shared singletons.

The serve layer fans evaluation out to a thread pool, so every
process-wide singleton (the engine LRU cache, the solver pool, the
metrics registry, the runtime counter facade, the tracer, the query
service's tenant maps) must hold up under interleaving.  PR 9 found a
real lost-update race (``RUNTIME_STATS.x += 1`` was a locked read
followed by a locked write) with a one-off regex scan; this pass turns
that audit into a whole-program discipline:

1. **Guard inference** — any class that assigns ``threading.Lock()`` /
   ``RLock()`` to an attribute (canonically ``self._lock``) in a method
   owns that guard; ``with self._lock:`` blocks mark the guarded
   regions.  Classes without a lock are assumed event-loop-confined
   (the asyncio service core) and are checked only by the executor
   escape rule.
2. **Singleton inventory** — module-level ``NAME = ClassName(...)``
   instances of lock-owning classes, plus the configured facades whose
   locking lives one level down (``RUNTIME_STATS`` proxies locked
   metric counters).

Rules:

====== ===============================================================
RPR201 An attribute written both *under* and *outside* its class's
       inferred guard lock (outside ``__init__``) — the unguarded
       write can interleave with every guarded critical section.
RPR202 Non-atomic read-modify-write on guarded or singleton state:
       ``x.attr += ...``, ``x.attr = x.attr <op> ...``, and dict
       get-then-set (``x.d[k] = x.d.get(k, ...) ...``) outside the
       guard — two critical sections, not one; updates get lost.  The
       PR 9 ``RUNTIME_STATS`` pattern is exactly this rule.
RPR203 Lock-order inversion: traversal A acquires lock L1 then
       (directly or through resolved calls) L2 while another traversal
       acquires L2 then L1 — a deadlock waiting for contention.
RPR204 A function handed to ``ThreadPoolExecutor.submit`` /
       ``run_in_executor`` / ``threading.Thread(target=...)`` reaches
       an unguarded write to a guarded attribute — shared mutable
       state escaping into a worker thread.
====== ===============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CallGraph, Finding, FunctionNode, _dotted

#: Facade singletons whose locking is delegated to contained objects —
#: externally they must still be treated as shared state (RPR202).
EXTRA_SINGLETONS = frozenset({
    "repro.runtime.budget.RUNTIME_STATS",
})

#: Container methods treated as writes to the receiver attribute.
MUTATORS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popleft", "popitem", "remove", "discard", "clear", "extend",
    "insert",
})

#: Executor-style escape points: call name -> index of the first
#: positional argument that names the escaping callable (every
#: function-reference argument from there on is considered escaped).
ESCAPES = {"submit": 0, "run_in_executor": 1}


@dataclass
class AttrWrite:
    """One write to ``self.<attr>`` inside a method."""

    attr: str
    lineno: int
    col: int
    guarded: bool
    rmw: bool  #: augmented / read-modify-write shape
    method: str


@dataclass
class LockClass:
    """Per-class lock-discipline facts."""

    qualname: str
    path: str
    lock_attrs: Set[str] = field(default_factory=set)
    writes: List[AttrWrite] = field(default_factory=list)

    def guarded_attrs(self) -> Set[str]:
        return {w.attr for w in self.writes if w.guarded}


def _is_lock_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _dotted(node.func) or ""
    return name.split(".")[-1] in {"Lock", "RLock"}


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``X`` (one level; ``self.X.Y`` -> ``X``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _reads_of(node: ast.AST, attr: str) -> bool:
    """Does an expression read ``self.<attr>`` anywhere?"""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr == attr
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        ):
            return True
    return False


class _MethodScanner(ast.NodeVisitor):
    """Walk one method tracking the held-lock set."""

    def __init__(
        self,
        owner: LockClass,
        method: FunctionNode,
        graph: CallGraph,
        singleton_locals: Dict[str, str],
    ) -> None:
        self.owner = owner
        self.method = method
        self.graph = graph
        self.singleton_locals = singleton_locals
        self.held: List[str] = []  #: stack of held lock ids
        #: ordered (outer, inner, lineno) acquisitions in this method
        self.orders: List[Tuple[str, str, int]] = []
        #: locks acquired anywhere in this method (for summaries)
        self.acquired: Set[str] = set()
        #: call sites made while holding a lock: (lock, site)
        self.calls_under: List[Tuple[str, ast.Call]] = []
        #: singleton RMW findings raised directly
        self.singleton_rmw: List[Finding] = []

    # -- lock identity ---------------------------------------------------

    def _lock_id(self, expr: ast.AST) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None and attr in self.owner.lock_attrs:
            return f"{self.owner.qualname}.{attr}"
        dotted = _dotted(expr)
        if dotted is None:
            return None
        head, _, tail = dotted.partition(".")
        target = self.singleton_locals.get(head)
        if target is not None and tail:
            return f"{target}.{tail}"
        return None

    # -- traversal -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:  # noqa: N802
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:  # noqa: N802
        self._with(node)

    def _with(self, node) -> None:
        acquired: List[str] = []
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                for held in self.held:
                    if held != lock:
                        self.orders.append((held, lock, node.lineno))
                self.held.append(lock)
                self.acquired.add(lock)
                acquired.append(lock)
            else:
                self.visit(item.context_expr)
        for child in node.body:
            self.visit(child)
        for lock in acquired:
            self.held.remove(lock)

    def visit_FunctionDef(self, node) -> None:  # noqa: N802
        return  # nested defs scanned as their own methods

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:  # noqa: N802
        return

    def visit_Call(self, node: ast.Call) -> None:  # noqa: N802
        if self.held:
            self.calls_under.append((self.held[-1], node))
        self.generic_visit(node)

    # -- writes ----------------------------------------------------------

    def _record(self, attr: str, node: ast.AST, rmw: bool) -> None:
        self.owner.writes.append(
            AttrWrite(
                attr=attr,
                lineno=node.lineno,
                col=node.col_offset,
                guarded=any(
                    lock.startswith(self.owner.qualname + ".")
                    for lock in self.held
                ),
                rmw=rmw,
                method=self.method.qualname,
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:  # noqa: N802
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None or attr in self.owner.lock_attrs:
                continue
            rmw = _reads_of(node.value, attr)
            # dict get-then-set: self.d[k] = ... self.d.get(...) ...
            if isinstance(target, ast.Subscript):
                base = _self_attr(target)
                rmw = rmw or (base is not None and _reads_of(
                    node.value, base
                ))
            self._record(attr, node, rmw)
        self._singleton_write(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:  # noqa: N802
        attr = _self_attr(node.target)
        if attr is not None and attr not in self.owner.lock_attrs:
            self._record(attr, node, rmw=True)
        self._singleton_write([node.target], None, node, aug=True)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:  # noqa: N802
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:  # noqa: N802
        # Container mutators: self.X.append(...) and friends.
        call = node.value
        if isinstance(call, ast.Call) and isinstance(
            call.func, ast.Attribute
        ):
            if call.func.attr in MUTATORS:
                attr = _self_attr(call.func.value)
                if attr is not None and attr not in self.owner.lock_attrs:
                    self._record(attr, node, rmw=False)
        self.generic_visit(node)

    # -- singleton external writes --------------------------------------

    def _singleton_write(
        self, targets, value, node, aug: bool = False
    ) -> None:
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if not (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
            ):
                continue
            singleton = self.singleton_locals.get(base.value.id)
            if singleton is None:
                continue
            rmw = aug or (
                value is not None
                and any(
                    isinstance(child, ast.Attribute)
                    and child.attr == base.attr
                    and isinstance(child.value, ast.Name)
                    and child.value.id == base.value.id
                    for child in ast.walk(value)
                )
            )
            if rmw:
                self.singleton_rmw.append(
                    Finding(
                        "RPR202", self.method.path, node.lineno,
                        node.col_offset,
                        f"non-atomic read-modify-write on shared "
                        f"singleton state {base.value.id}.{base.attr} "
                        f"(singleton {singleton}): a locked read then "
                        "a locked write loses updates under threads; "
                        "use the singleton's atomic mutator (e.g. "
                        ".inc()) instead",
                    )
                )


def _singleton_locals(
    graph: CallGraph, module_name: str
) -> Dict[str, str]:
    """Local name -> singleton qualname visible in one module (its own
    module-level instances plus imported ones)."""
    singletons = set(graph.singletons) | set(EXTRA_SINGLETONS)
    module = graph.modules.get(module_name)
    table: Dict[str, str] = {}
    for qualname in singletons:
        mod, _, name = qualname.rpartition(".")
        if mod == module_name:
            table[name] = qualname
    if module is not None:
        for local, target in module.imports.items():
            if target in singletons:
                table[local] = target
    return table


def collect_lock_classes(graph: CallGraph) -> Dict[str, LockClass]:
    """Infer guard locks and attribute writes for every class."""
    classes: Dict[str, LockClass] = {}
    for qualname, info in graph.classes.items():
        lock_attrs: Set[str] = set()
        for method_qualname in info.methods.values():
            fn = graph.functions.get(method_qualname)
            if fn is None or fn.node is None:
                continue
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and _is_lock_ctor(node.value)
                ):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            lock_attrs.add(attr)
        if lock_attrs:
            classes[qualname] = LockClass(
                qualname=qualname, path=info.path, lock_attrs=lock_attrs
            )
    return classes


def check_races(graph: CallGraph) -> List[Finding]:
    """Run Pass 2 over a built graph."""
    findings: List[Finding] = []
    lock_classes = collect_lock_classes(graph)
    scanners: List[_MethodScanner] = []

    # Scan every function: methods of lock classes feed guard analysis;
    # everything feeds the singleton-RMW and lock-order rules.
    placeholder: Dict[str, LockClass] = {}
    for qualname, fn in graph.functions.items():
        if fn.node is None:
            continue
        owner = lock_classes.get(fn.cls) if fn.cls else None
        if owner is None:
            key = fn.cls or fn.module
            owner = placeholder.setdefault(
                key, LockClass(qualname=key or "<module>", path=fn.path)
            )
        scanner = _MethodScanner(
            owner, fn, graph, _singleton_locals(graph, fn.module)
        )
        for child in (
            fn.node.body if hasattr(fn.node, "body") else []
        ):
            scanner.visit(child)
        scanners.append(scanner)
        findings.extend(scanner.singleton_rmw)

    # Module-level statements race too (import-time and script bodies):
    # scan them for singleton RMW so the retired regex scan's coverage
    # is a strict subset of this rule.
    for module in graph.modules.values():
        pseudo = FunctionNode(
            qualname=f"{module.name}.<module>", module=module.name,
            path=module.path, lineno=1, name="<module>",
        )
        owner = LockClass(qualname=module.name, path=module.path)
        scanner = _MethodScanner(
            owner, pseudo, graph, _singleton_locals(graph, module.name)
        )
        for node in module.tree.body:
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            scanner.visit(node)
        findings.extend(scanner.singleton_rmw)

    # RPR201 / RPR202 on inferred guard discipline.
    for owner in lock_classes.values():
        guarded = owner.guarded_attrs()
        flagged: Set[Tuple[str, int]] = set()
        for write in owner.writes:
            if write.attr not in guarded or write.guarded:
                continue
            if write.method.endswith(".__init__"):
                continue  # construction happens-before publication
            key = (write.attr, write.lineno)
            if key in flagged:
                continue
            flagged.add(key)
            rule = "RPR202" if write.rmw else "RPR201"
            detail = (
                "non-atomic read-modify-write outside the guard"
                if write.rmw
                else "write outside the guard while other sites write "
                "under it"
            )
            findings.append(
                Finding(
                    rule, owner.path, write.lineno, write.col,
                    f"attribute {owner.qualname.rsplit('.', 1)[-1]}"
                    f".{write.attr} is guarded by "
                    f"{sorted(owner.lock_attrs)} elsewhere but this "
                    f"site mutates it unguarded ({detail})",
                )
            )

    # RPR203 — lock-order inversion (intraprocedural orders plus one
    # interprocedural closure step through resolved calls).
    method_acquires: Dict[str, Set[str]] = {}
    for scanner in scanners:
        method_acquires.setdefault(
            scanner.method.qualname, set()
        ).update(scanner.acquired)
    # Fixpoint: locks transitively acquired through resolved edges.
    closure: Dict[str, Set[str]] = {
        q: set(a) for q, a in method_acquires.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname, fn in graph.functions.items():
            mine = closure.setdefault(qualname, set())
            for site in fn.calls:
                for callee, _ in graph.callees(
                    fn, fn.cls, site, include_attr_matches=False
                ):
                    extra = closure.get(callee, set()) - mine
                    if extra:
                        mine.update(extra)
                        changed = True
    orders: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
    for scanner in scanners:
        for outer, inner, lineno in scanner.orders:
            orders.setdefault(
                (outer, inner),
                (scanner.method.path, lineno, scanner.method.qualname),
            )
        for held, call in scanner.calls_under:
            fn = scanner.method
            site_matches = [
                s for s in fn.calls if s.lineno == call.lineno
            ]
            for site in site_matches:
                for callee, _ in graph.callees(
                    fn, fn.cls, site, include_attr_matches=False
                ):
                    for inner in closure.get(callee, set()):
                        if inner != held:
                            orders.setdefault(
                                (held, inner),
                                (fn.path, call.lineno, fn.qualname),
                            )
    reported: Set[Tuple[str, str]] = set()
    for (outer, inner), (path, lineno, method) in sorted(orders.items()):
        if (inner, outer) not in orders:
            continue
        if (inner, outer) in reported:
            continue
        reported.add((outer, inner))
        other_path, other_line, other_method = orders[(inner, outer)]
        findings.append(
            Finding(
                "RPR203", path, lineno, 0,
                f"lock-order inversion: {method} acquires {outer} then "
                f"{inner}, while {other_method} "
                f"({other_path}:{other_line}) acquires them in the "
                "opposite order — deadlock under contention",
            )
        )

    # RPR204 — unguarded guarded-attr writes reachable from executor
    # escapes.
    unguarded_sites: Dict[str, List[AttrWrite]] = {}
    for owner in lock_classes.values():
        guarded = owner.guarded_attrs()
        for write in owner.writes:
            if (
                write.attr in guarded
                and not write.guarded
                and not write.method.endswith(".__init__")
            ):
                unguarded_sites.setdefault(write.method, []).append(write)
    for qualname, fn in graph.functions.items():
        if fn.node is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = ""
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            escaped: List[ast.AST] = []
            if name in ESCAPES:
                escaped = list(node.args[ESCAPES[name]:])
            elif name == "Thread":
                escaped = [
                    kw.value for kw in node.keywords
                    if kw.arg == "target"
                ]
            for arg in escaped:
                target = None
                if isinstance(arg, ast.Attribute) and isinstance(
                    arg.value, ast.Name
                ) and arg.value.id == "self" and fn.cls:
                    target = graph.resolve_method(fn.cls, arg.attr)
                elif isinstance(arg, (ast.Name, ast.Attribute)):
                    dotted = _dotted(arg)
                    module = graph.modules.get(fn.module)
                    if dotted and module is not None:
                        target = graph.qualify(module, dotted)
                if target is None or target not in graph.functions:
                    continue
                parents = graph.reachable(
                    target, include_attr_matches=False
                )
                for reached in parents:
                    for write in unguarded_sites.get(reached, ()):
                        findings.append(
                            Finding(
                                "RPR204", fn.path, node.lineno,
                                node.col_offset,
                                f"{target} escapes into a worker "
                                f"thread here and reaches an unguarded "
                                f"write to guarded attribute "
                                f".{write.attr} at "
                                f"{graph.functions[reached].path}:"
                                f"{write.lineno}",
                            )
                        )
    return findings


def summarize(graph: CallGraph) -> Dict[str, object]:
    """Machine-readable Pass 2 summary for the JSON report."""
    lock_classes = collect_lock_classes(graph)
    return {
        "lock_classes": {
            qualname: sorted(owner.lock_attrs)
            for qualname, owner in sorted(lock_classes.items())
        },
        "singletons": {
            name: cls
            for name, cls in sorted(graph.singletons.items())
        },
    }
