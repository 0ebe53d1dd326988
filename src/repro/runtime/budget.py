"""Cooperative resource budgets (wall clock, SAT calls, search nodes).

The paper's upper bounds are oracle algorithms whose worst cases jump to
Σ₂ᵖ/Π₂ᵖ, so a single hard instance can occupy a SAT solve or a ``2^|V|``
enumeration indefinitely.  This module makes every such loop *bounded*:

* :class:`Budget` — an immutable limit triple: wall-clock milliseconds,
  NP-oracle (SAT ``solve``) calls, and enumeration/search nodes;
* :class:`BudgetScope` — the live accounting object a computation runs
  under, installed with :func:`budget_scope`;
* :class:`BudgetExceeded` — the typed exception a tripped scope raises,
  carrying the :class:`ResourceUsage` consumed up to the trip.

Enforcement is *cooperative*: the solver, enumeration and oracle layers
call the module-level hooks (:func:`note_sat_call`, :func:`note_nodes`,
:func:`check_deadline`) at their natural work units.  When no scope is
active the hooks are a single ``ContextVar`` read, so unbudgeted callers
pay nothing.  Scopes nest: an inner scope forwards its consumption to the
enclosing one, and whichever limit trips first raises.

The counters that tripped budgets, faults and degradations accumulate in
the process-wide :data:`RUNTIME_STATS`, surfaced by ``repro-ddb query`` /
``repro-ddb faults`` and :meth:`repro.session.DatabaseSession.stats`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, Optional

from ..errors import BudgetExceededError
from ..obs.accounting import note_nodes as _account_nodes
from ..obs.metrics import METRICS

#: How many nodes are ticked between wall-clock checks inside node loops
#: (a node is far cheaper than a SAT call, so the clock is read less often).
NODE_CHECK_INTERVAL = 64


@dataclass(frozen=True)
class Budget:
    """An immutable resource-limit triple.

    Attributes:
        wall_ms: wall-clock ceiling in milliseconds (``None`` = unbounded).
        max_sat_calls: NP-oracle (SAT ``solve``) call ceiling.
        max_nodes: enumeration/DPLL-search node ceiling.

    A limit of ``None`` leaves that resource unbounded; the all-``None``
    budget is legal and never trips (useful as a neutral default).
    """

    wall_ms: Optional[float] = None
    max_sat_calls: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self):
        for name in ("wall_ms", "max_sat_calls", "max_nodes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def unbounded(self) -> bool:
        """Whether no limit is set at all."""
        return (
            self.wall_ms is None
            and self.max_sat_calls is None
            and self.max_nodes is None
        )

    def scaled(self, factor: float) -> "Budget":
        """A budget with every set limit multiplied by ``factor`` (used by
        the resilient engine to reserve headroom for fallbacks)."""
        return replace(
            self,
            wall_ms=None if self.wall_ms is None else self.wall_ms * factor,
            max_sat_calls=(
                None
                if self.max_sat_calls is None
                else int(self.max_sat_calls * factor)
            ),
            max_nodes=(
                None if self.max_nodes is None else int(self.max_nodes * factor)
            ),
        )

    def render(self) -> str:
        """Human-readable one-line form (``-`` marks unbounded limits)."""
        wall = "-" if self.wall_ms is None else f"{self.wall_ms:g}ms"
        sat = "-" if self.max_sat_calls is None else str(self.max_sat_calls)
        nodes = "-" if self.max_nodes is None else str(self.max_nodes)
        return f"wall {wall}, sat-calls {sat}, nodes {nodes}"


@dataclass
class ResourceUsage:
    """Resources consumed by (part of) a computation.

    The counters *include* the attempt that tripped the budget: a scope
    with ``max_sat_calls=5`` raises on the sixth call with
    ``sat_calls == 6``, so the usage is an exact account of work started.
    """

    elapsed_ms: float = 0.0
    sat_calls: int = 0
    nodes: int = 0

    def render(self) -> str:
        """Human-readable one-line form."""
        return (
            f"{self.elapsed_ms:.1f}ms elapsed, "
            f"{self.sat_calls} SAT call(s), {self.nodes} node(s)"
        )


class BudgetExceeded(BudgetExceededError):
    """A budget limit was exceeded.

    Attributes:
        resource: which limit tripped — ``"wall_ms"``, ``"sat_calls"`` or
            ``"nodes"``.
        budget: the :class:`Budget` that was in force.
        usage: the :class:`ResourceUsage` consumed up to (and including)
            the tripping attempt.
    """

    def __init__(self, resource: str, budget: Budget, usage: ResourceUsage):
        self.resource = resource
        self.budget = budget
        self.usage = usage
        super().__init__(
            f"budget exceeded on {resource} "
            f"(budget: {budget.render()}; used: {usage.render()})"
        )


#: The runtime counter names, in ``snapshot()`` order.  Each is backed
#: by a ``repro_runtime_<name>_total`` counter in the metrics registry.
_RUNTIME_FIELDS = (
    "scopes_entered",
    "budgets_exceeded",
    "sat_faults_injected",
    "latency_injections",
    "retries",
    "fallbacks",
    "timeouts",
)


class RuntimeStats:
    """Process-wide counters for the resource-governance layer.

    Each counter lives in the :data:`~repro.obs.metrics.METRICS`
    registry as ``repro_runtime_<name>_total`` (so it shows up in the
    Prometheus exposition alongside the oracle-accounting counters),
    while attribute access keeps the historical mutable-dataclass API:
    ``RUNTIME_STATS.retries += 1`` still works at every call site.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        counters = {
            name: METRICS.counter(
                f"repro_runtime_{name}_total",
                f"Runtime governance counter: {name.replace('_', ' ')}",
            )
            for name in _RUNTIME_FIELDS
        }
        object.__setattr__(self, "_counters", counters)

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        try:
            return counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: int) -> None:
        counters = object.__getattribute__(self, "_counters")
        try:
            counters[name].set(value)
        except KeyError:
            raise AttributeError(name) from None

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically add to one counter.

        ``RUNTIME_STATS.retries += 1`` expands to a locked read followed
        by a locked write — two threads can interleave between them and
        lose an update.  Concurrent call sites (everything reachable from
        the serve layer's worker threads) must use this single-lock path
        instead.
        """
        counters = object.__getattribute__(self, "_counters")
        try:
            counters[name].inc(amount)
        except KeyError:
            raise AttributeError(name) from None

    def snapshot(self) -> Dict[str, int]:
        """The counters as a flat dict (``SatSolver.stats()`` style)."""
        counters = object.__getattribute__(self, "_counters")
        return {name: counters[name].value for name in _RUNTIME_FIELDS}

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        counters = object.__getattribute__(self, "_counters")
        for counter in counters.values():
            counter.reset()


#: The process-wide runtime counters.
RUNTIME_STATS = RuntimeStats()


class BudgetScope:
    """Live accounting for one budgeted computation.

    Created by :func:`budget_scope`; the solver/enumeration hooks tick the
    innermost active scope, which cascades the consumption to enclosing
    scopes so nested budgets all stay accurate.

    Args:
        budget: the limits to enforce.
        clock: monotonic-seconds source (injectable for tests).
    """

    __slots__ = (
        "budget", "sat_calls", "nodes", "parent", "exceeded",
        "_clock", "_start", "_node_check",
    )

    def __init__(
        self,
        budget: Budget,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget
        self.sat_calls = 0
        self.nodes = 0
        self.parent: Optional["BudgetScope"] = None
        self.exceeded: Optional[BudgetExceeded] = None
        self._clock = clock
        self._start = clock()
        self._node_check = 0

    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        """Milliseconds since the scope started."""
        return (self._clock() - self._start) * 1000.0

    def usage(self) -> ResourceUsage:
        """The resources consumed under this scope so far."""
        return ResourceUsage(
            elapsed_ms=self.elapsed_ms(),
            sat_calls=self.sat_calls,
            nodes=self.nodes,
        )

    # ------------------------------------------------------------------
    def _trip(self, resource: str) -> None:
        error = BudgetExceeded(resource, self.budget, self.usage())
        self.exceeded = error
        RUNTIME_STATS.inc("budgets_exceeded")
        raise error

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if the wall clock has run out
        (on this scope or any enclosing one)."""
        scope: Optional[BudgetScope] = self
        while scope is not None:
            wall = scope.budget.wall_ms
            if wall is not None and scope.elapsed_ms() > wall:
                scope._trip("wall_ms")
            scope = scope.parent

    def note_sat_call(self) -> None:
        """Record one SAT call; trips the call ceiling or the deadline.

        The whole scope chain is incremented *before* any limit is
        checked, so when an inner scope trips, the enclosing scopes have
        still accounted the tripping attempt.
        """
        scope: Optional[BudgetScope] = self
        while scope is not None:
            scope.sat_calls += 1
            scope = scope.parent
        scope = self
        while scope is not None:
            ceiling = scope.budget.max_sat_calls
            if ceiling is not None and scope.sat_calls > ceiling:
                scope._trip("sat_calls")
            wall = scope.budget.wall_ms
            if wall is not None and scope.elapsed_ms() > wall:
                scope._trip("wall_ms")
            scope = scope.parent

    def note_nodes(self, count: int = 1) -> None:
        """Record ``count`` enumeration/search nodes; trips the node
        ceiling immediately and the deadline every
        :data:`NODE_CHECK_INTERVAL` nodes.  As with :meth:`note_sat_call`,
        the whole chain records the nodes before any scope trips.
        """
        scope: Optional[BudgetScope] = self
        while scope is not None:
            scope.nodes += count
            scope._node_check += count
            scope = scope.parent
        scope = self
        while scope is not None:
            ceiling = scope.budget.max_nodes
            if ceiling is not None and scope.nodes > ceiling:
                scope._trip("nodes")
            if (
                scope.budget.wall_ms is not None
                and scope._node_check >= NODE_CHECK_INTERVAL
            ):
                scope._node_check = 0
                if scope.elapsed_ms() > scope.budget.wall_ms:
                    scope._trip("wall_ms")
            scope = scope.parent


#: The innermost active scope of the current context (thread/task-local).
_ACTIVE: "ContextVar[Optional[BudgetScope]]" = ContextVar(
    "repro_budget_scope", default=None
)


@contextmanager
def budget_scope(budget: Budget) -> Iterator[BudgetScope]:
    """Install a :class:`BudgetScope` for the duration of the block::

        with budget_scope(Budget(wall_ms=500, max_sat_calls=100)) as scope:
            semantics.infers(db, formula)   # may raise BudgetExceeded
        scope.usage()                       # resources actually consumed

    Scopes nest: consumption inside the block also counts against any
    enclosing scope, and the tightest limit trips first.
    """
    scope = BudgetScope(budget)
    scope.parent = _ACTIVE.get()
    token = _ACTIVE.set(scope)
    RUNTIME_STATS.inc("scopes_entered")
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)


def current_scope() -> Optional[BudgetScope]:
    """The innermost active scope, or ``None``."""
    return _ACTIVE.get()


# ----------------------------------------------------------------------
# Module-level hooks: near-free when no scope is active.
# ----------------------------------------------------------------------
def note_sat_call() -> None:
    """Tick one SAT call against the active scope (no-op when none)."""
    scope = _ACTIVE.get()
    if scope is not None:
        scope.note_sat_call()


def note_nodes(count: int = 1) -> None:
    """Tick enumeration/search nodes: always recorded in the oracle
    accounting (the certifier's node envelope needs them even when no
    budget is in force), then charged to the active scope, if any."""
    _account_nodes(count)
    scope = _ACTIVE.get()
    if scope is not None:
        scope.note_nodes(count)


def check_deadline() -> None:
    """Raise if the active scope's wall clock has run out (no-op when no
    scope is active).  Long-running loops without natural SAT/node ticks
    call this at their iteration heads."""
    scope = _ACTIVE.get()
    if scope is not None:
        scope.check()
