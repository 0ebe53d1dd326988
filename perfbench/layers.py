"""Per-layer attribution from outside the program.

:class:`LayerTracer` installs wrappers around public functions of each
``repro`` layer (the table :data:`LAYERS`), records a span per call —
layer, start, end, parent, query id — and folds each finished span into
per-thread aggregates: self time per layer, calls per layer, and per
query its wall interval and the sum of its spans' self times.  A span's
self time is its duration minus the time its child spans cover.
Parentage follows :mod:`contextvars`, which the serve layer already
copies into its executor.

Nothing in ``src/`` is edited: module-level functions are replaced in
every loaded ``repro`` module that holds a reference to them, methods on
their defining class.  :meth:`LayerTracer.remove` puts every original
back.  Times use ``time.monotonic_ns``, which is one system-wide clock
on Linux, so a client process can stamp when it sent a request.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

_now = time.monotonic_ns

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_QUERY: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_query", default=None
)
#: ``[count]`` of NP ticks charged to the active session query.
_NP_TALLY: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_np_tally", default=None
)
#: True while a semantics ``infers``/``infers_literal`` call is active.
_IN_INFERS: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_in_infers", default=False
)

#: Request headers the benchmark client sets on every request.
QUERY_ID_HEADER = "x-request-id"
SENT_HEADER = "x-sent-ns"

#: (span layer, per-layer metric, [(module, qualified name), ...]).
#: Two layers are discovered instead of listed: ``semantics`` (the
#: entry points of every Semantics subclass) and ``complexity.sigma2``
#: (every method carrying ``_counts_as_sigma2_dispatch``).
LAYERS: List[Tuple[str, str, List[Tuple[str, str]]]] = [
    ("serve.http", "serve.http_ms", [
        ("repro.serve.http", "read_request"),
        ("repro.serve.http", "Request.json"),
        ("repro.serve.http", "Response.encode"),
        ("repro.serve.http", "write_response"),
    ]),
    ("serve.queue_wait", "serve.queue_wait_ms", [
        ("repro.serve.service", "QueryService.submit"),
    ]),
    ("serve.dispatch", "serve.dispatch_ms", [
        ("repro.serve.service", "QueryService._run_one"),
    ]),
    ("serve.register", "serve.register_ms", [
        ("repro.serve.service", "QueryService.register_database"),
    ]),
    ("session.self", "session.self_ms", [
        ("repro.session", "DatabaseSession.ask"),
        ("repro.session", "DatabaseSession.ask_literal"),
        ("repro.session", "DatabaseSession.has_model"),
        ("repro.session", "DatabaseSession.models"),
    ]),
    ("session.pool_walk", "session.pool_walk_ms", [
        ("repro.sat.incremental", "SolverPool.core_stats"),
    ]),
    ("session.explain", "session.explain_ms", [
        ("repro.semantics.explain", "explain_non_inference"),
    ]),
    ("obs.certify", "obs.certify_ms", [
        ("repro.obs.certify", "Certifier.check"),
    ]),
    ("semantics", "semantics.ms", []),
    ("engine.lookup", "engine.lookup_ms", [
        ("repro.engine.cache", "EngineCache.get_or_compute"),
    ]),
    ("engine.build", "engine.build_ms", []),
    ("analysis.plan", "analysis.plan_ms", [
        ("repro.analysis.planner", "FragmentPlanner.plan"),
        ("repro.analysis.fragment", "fragment_profile"),
        ("repro.analysis.fragment", "FragmentAnalyzer.analyze"),
    ]),
    ("kernel", "kernel.ms", [
        ("repro.kernel.bitset", "atom_table_for"),
        ("repro.kernel.bitset", "packed_database_for"),
        ("repro.kernel.bitset", "product_or_masks"),
        ("repro.kernel.bitset", "subsets_in_table_order"),
    ]),
    ("models.enum", "models.enum_ms", [
        ("repro.models.enumeration", "all_models"),
        ("repro.models.enumeration", "models_in_block"),
        ("repro.models.enumeration", "minimal_models_brute"),
        ("repro.models.enumeration", "pz_minimal_models_brute"),
        ("repro.models.enumeration", "prioritized_minimal_models_brute"),
        ("repro.models.enumeration", "models_entail_brute"),
    ]),
    ("logic.parse", "logic.parse_ms", [
        ("repro.logic.parser", "parse_database"),
        ("repro.logic.parser", "parse_formula"),
    ]),
    ("sat.solve", "sat.solve_ms", [
        ("repro.sat.cdcl", "CdclSolver.solve"),
    ]),
    ("sat.translate", "sat.translate_ms", [
        ("repro.logic.cnf", "tseitin"),
        ("repro.logic.cnf", "database_to_cnf"),
        ("repro.sat.incremental", "Scope.add_formula"),
        ("repro.sat.incremental", "Scope.add_database"),
        ("repro.sat.solver", "SatSolver.add_formula"),
        ("repro.sat.solver", "SatSolver.add_database"),
    ]),
    ("sat.acquire", "sat.acquire_ms", [
        ("repro.sat.incremental", "SolverPool.acquire"),
    ]),
    ("complexity.sigma2", "complexity.sigma2_ms", []),
]

_SEMANTICS_METHODS = (
    "infers", "infers_literal", "infers_brave", "has_model", "model_set",
)
_CDCL_STATS = ("propagations", "conflicts", "decisions")


class Span:
    """One call into a layer (kept only until it finishes)."""

    __slots__ = ("layer", "start", "parent", "qid", "child_ns", "token")

    def __init__(self, layer, start, parent, qid):
        self.layer = layer
        self.start = start
        self.parent = parent
        self.qid = qid
        self.child_ns = 0
        self.token = None


class _ThreadAgg:
    """Aggregates written by one thread only (merged at dump time)."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[int]] = {}  # layer -> [self_ns, calls]
        self.queries: Dict[Any, List[int]] = {}  # qid -> [start, end, self]
        self.counters: Dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class LayerTracer:
    """Installs the layer wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._aggs: List[_ThreadAgg] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _agg(self) -> _ThreadAgg:
        agg = getattr(self._tls, "agg", None)
        if agg is None:
            agg = self._tls.agg = _ThreadAgg()
            with self._lock:
                self._aggs.append(agg)
        return agg

    def open(self, layer: str, parent=None, start=None) -> Span:
        span = Span(
            layer,
            _now() if start is None else start,
            _CURRENT.get() if parent is None else parent,
            _QUERY.get(),
        )
        span.token = _CURRENT.set(span)
        return span

    def close(self, span: Span) -> None:
        end = _now()
        _CURRENT.reset(span.token)
        duration = end - span.start
        if span.parent is not None:
            span.parent.child_ns += duration
        own = duration - span.child_ns
        agg = self._agg()
        slot = agg.layers.get(span.layer)
        if slot is None:
            slot = agg.layers[span.layer] = [0, 0]
        slot[0] += own
        slot[1] += 1
        if span.qid is not None:
            record = agg.queries.get(span.qid)
            if record is None:
                agg.queries[span.qid] = [span.start, end, own]
            else:
                if span.start < record[0]:
                    record[0] = span.start
                if end > record[1]:
                    record[1] = end
                record[2] += own

    def reset(self) -> None:
        """Drop every aggregate (call between measurement windows)."""
        with self._lock:
            self._tls = threading.local()
            self._aggs = []

    def set_query(self, qid) -> None:
        """Charge spans opened from now on in this context to ``qid``."""
        _QUERY.set(qid)

    def dump(self) -> Dict[str, Any]:
        """Merged aggregates: per layer self ns and calls, counters, and
        per query wall and self ns summed over the queries."""
        with self._lock:
            aggs = list(self._aggs)
        layers: Dict[str, List[int]] = {}
        queries: Dict[Any, List[int]] = {}
        counters: Dict[str, int] = {}
        for agg in aggs:
            for layer, (own, calls) in list(agg.layers.items()):
                slot = layers.setdefault(layer, [0, 0])
                slot[0] += own
                slot[1] += calls
            for qid, (start, end, own) in list(agg.queries.items()):
                record = queries.get(qid)
                if record is None:
                    queries[qid] = [start, end, own]
                else:
                    record[0] = min(record[0], start)
                    record[1] = max(record[1], end)
                    record[2] += own
            for name, value in list(agg.counters.items()):
                counters[name] = counters.get(name, 0) + value
        return {
            "layers": {k: {"self_ns": v[0], "calls": v[1]} for k, v in layers.items()},
            "counters": counters,
            "queries": len(queries),
            "query_wall_ns": sum(r[1] - r[0] for r in queries.values()),
            "query_self_ns": sum(r[2] for r in queries.values()),
        }

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _plain(self, fn, layer):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                span = tracer.open(layer)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(span)
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer.open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
        return traced

    def _special(self, name: str, fn, layer):
        """Wrappers that do more than time the call, or ``None``."""
        tracer = self
        if name == "read_request":
            # The wait for the client's next request is idle time: the
            # span starts when the client says it sent the request.
            @functools.wraps(fn)
            async def traced(reader):
                request = await fn(reader)
                if request is not None:
                    sent = request.header(SENT_HEADER)
                    tracer.set_query(request.header(QUERY_ID_HEADER))
                    if sent is not None:
                        tracer.close(tracer.open(layer, start=int(sent)))
                return request
            return traced
        if name == "QueryService.submit":
            @functools.wraps(fn)
            async def traced(self, item):
                span = tracer.open(layer)
                item._perfbench = (span, _QUERY.get())
                try:
                    return await fn(self, item)
                finally:
                    tracer.close(span)
            return traced
        if name == "QueryService._run_one":
            # Batches run in a context copied from whichever request
            # opened the batch; re-parent each item onto its own request.
            @functools.wraps(fn)
            def traced(self, session, item, width):
                parent, qid = getattr(item, "_perfbench", (None, None))
                _QUERY.set(qid)
                span = tracer.open(layer, parent=parent)
                try:
                    return fn(self, session, item, width)
                finally:
                    tracer.close(span)
            return traced
        if name in ("DatabaseSession.ask", "DatabaseSession.ask_literal"):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tally = [0]
                token = _NP_TALLY.set(tally)
                span = tracer.open(layer)
                try:
                    answer = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                    _NP_TALLY.reset(token)
                if answer.observation is not None:
                    tracer._agg().count(
                        "np_misattributed",
                        abs(answer.observation.np_calls - tally[0]),
                    )
                return answer
            return traced
        if name == "EngineCache.get_or_compute":
            @functools.wraps(fn)
            def traced(self, kind, key, builder):
                def build():
                    inner = tracer.open("engine.build")
                    try:
                        return builder()
                    finally:
                        tracer.close(inner)

                span = tracer.open(layer)
                try:
                    return fn(self, kind, key, build)
                finally:
                    tracer.close(span)
            return traced
        if name == "CdclSolver.solve":
            @functools.wraps(fn)
            def traced(self, *args, **kwargs):
                stats = self.stats
                before = [getattr(stats, s) for s in _CDCL_STATS]
                span = tracer.open(layer)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer.close(span)
                    agg = tracer._agg()
                    for stat, start in zip(_CDCL_STATS, before):
                        agg.count(stat, getattr(stats, stat) - start)
            return traced
        if layer == "semantics" and name.endswith(
            (".infers", ".infers_literal")
        ):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                token = _IN_INFERS.set(True)
                span = tracer.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                    _IN_INFERS.reset(token)
            return traced
        return None

    def _np_tick(self, fn):
        """The per-``solve`` NP tick: counted, and charged to the session
        query whose ``infers``/``infers_literal`` is active here."""
        tracer = self

        @functools.wraps(fn)
        def traced():
            fn()
            tracer._agg().count("np_calls")
            if _IN_INFERS.get():
                tally = _NP_TALLY.get()
                if tally is not None:
                    tally[0] += 1
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def targets(self) -> List[Tuple[str, Any, str, Any]]:
        """(layer, owner, attribute, original) for every wrapped callable:
        ``owner`` is a class, or a module for module-level functions."""
        import importlib

        for module in (
            "repro.serve", "repro.session", "repro.engine.cached",
            "repro.engine.resilient", "repro.analysis.planner",
            "repro.semantics.explain",
        ):
            importlib.import_module(module)
        found = []
        for layer, _metric, names in LAYERS:
            for module_name, qualname in names:
                module = sys.modules[module_name]
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner).get(attr)
                if not inspect.isfunction(original):
                    print(
                        f"perfbench: {module_name}.{qualname} not found; "
                        f"layer {layer} loses it",
                        file=sys.stderr,
                    )
                    continue
                found.append((layer, owner, attr, original))
        from repro.semantics.base import Semantics

        stack, seen = [Semantics], set()
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(cls.__subclasses__())
            for attr in _SEMANTICS_METHODS:
                original = vars(cls).get(attr)
                if inspect.isfunction(original):
                    found.append(("semantics", cls, attr, original))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, original in list(vars(cls).items()):
                    if inspect.isfunction(original) and getattr(
                        original, "_counts_as_sigma2_dispatch", False
                    ):
                        found.append(("complexity.sigma2", cls, attr, original))
        return found

    def install(self) -> None:
        """Wrap every target; idempotent."""
        if self._patches:
            return
        for layer, owner, attr, original in self.targets():
            qualname = (
                attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            )
            wrapper = self._special(qualname, original, layer) or self._plain(
                original, layer
            )
            if inspect.ismodule(owner):
                self._replace_everywhere(original, wrapper)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        from repro import runtime

        tick = runtime.observe_sat_call
        self._replace_everywhere(tick, self._np_tick(tick))

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def metric_names() -> List[str]:
    """The per-layer time metrics, in table order."""
    return [metric for _layer, metric, _names in LAYERS]
