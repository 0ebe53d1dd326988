"""Oracle accounting: who asked how many NP questions, and how deeply.

The paper's upper bounds are statements about *counted* oracle access:
a coNP decision procedure makes O(1) NP-oracle dispatches, a Π₂ᵖ
procedure may make polynomially many Σ₂ᵖ dispatches but never nests
them more than one level, Θ₃ᵖ procedures are Σ₂ᵖ-dispatch-bounded.
This module is the single place where those dispatches are ticked:

* :func:`note_np_call` — one NP-oracle invocation (a SAT ``solve``);
  called from :func:`repro.runtime.observe_sat_call`, i.e. it sees the
  exact same stream of events as the budget governor.
* :func:`sigma2_dispatch` / :func:`counts_as_sigma2_dispatch` — one
  Σ₂ᵖ-oracle invocation.  Only the *primitive realizations* are marked
  (``MinimalModelSolver.find_minimal_satisfying``, its sweep
  ``_sweep_witness`` and the union-query machine) — wrappers like
  :class:`repro.complexity.oracles.Sigma2Oracle` delegate 1:1 and must
  not be marked, or the bookkeeping would fake a nesting depth of two
  for a flat procedure.
* :func:`note_nodes` — brute-force search nodes, fed from
  :func:`repro.runtime.budget.note_nodes`.

Each tick goes to two places: the process-wide monotone counters
(:func:`totals`, the ``repro_oracle_*`` metrics) and every
:func:`observe` window open in the *calling* :class:`~contextvars.
ContextVar` context.  Dispatch depth is context-local the same way, so
re-entrant Σ₂ᵖ dispatches (which the certifier must flag for Π₂ᵖ
claims) are visible even across generator suspensions in the same
context.  A window therefore counts its own query's work only, however
many threads tick concurrently, and reads no process-wide counter.
Observations nest; each sees only its own window.  CDCL search
statistics reach the windows per solver checkout
(:meth:`repro.sat.incremental.SolverPool.release` calls
:func:`charge_solver_stats`).

:func:`record_plan_outcome` closes the planner's feedback loop: every
planned session query compares the cost model's prediction against the
observed window — per-procedure query counters and a predicted-vs-actual
NP-call ratio histogram whose bucket boundaries are exactly the
calibration band the test suite asserts (0.25x–4x).
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.obs.metrics import METRICS

NP_CALLS = METRICS.counter(
    "repro_oracle_np_calls_total",
    "NP-oracle invocations (SAT solver solve() calls)",
)
SIGMA2_DISPATCHES = METRICS.counter(
    "repro_oracle_sigma2_dispatches_total",
    "Sigma2p-oracle invocations (minimal-model primitive dispatches)",
)
SEARCH_NODES = METRICS.counter(
    "repro_search_nodes_total",
    "Brute-force enumeration nodes visited",
)
MAX_DISPATCH_DEPTH = METRICS.gauge(
    "repro_oracle_max_sigma2_depth",
    "Deepest Sigma2p dispatch nesting observed process-wide",
)
PLANNER_QUERIES = METRICS.counter(
    "repro_planner_queries_total",
    "Session queries answered through the planned engine, by procedure",
    labelnames=("procedure",),
)
PLANNER_NP_RATIO = METRICS.histogram(
    "repro_planner_np_ratio",
    "Predicted-vs-actual NP-call ratio, (actual+1)/(predicted+1); the "
    "0.25/4.0 boundary buckets are the documented calibration band",
    buckets=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
)

#: Current Σ₂ᵖ dispatch nesting depth in this context (0 = outside any).
_DISPATCH_DEPTH: ContextVar[int] = ContextVar("repro_sigma2_depth", default=0)

#: A live observation window: each thread that ticked inside it maps to
#: its own tally.  A context copied inside a window and run on another
#: thread (an executor task) shares the window, but every thread writes
#: only its own tally, so ticks need no lock and none is lost.
_Window = Dict[int, "OracleObservation"]

#: Stack of live observation windows in this context.
_ACTIVE: ContextVar[Tuple[_Window, ...]] = ContextVar(
    "repro_obs_windows", default=()
)


@dataclass
class OracleObservation:
    """Oracle work observed inside one :func:`observe` window."""

    np_calls: int = 0
    sigma2_dispatches: int = 0
    nodes: int = 0
    max_sigma2_depth: int = 0
    #: CDCL search statistics of the pooled solvers checked out inside
    #: the window (see :func:`charge_solver_stats`).
    solver_stats: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "np_calls": self.np_calls,
            "sigma2_dispatches": self.sigma2_dispatches,
            "nodes": self.nodes,
            "max_sigma2_depth": self.max_sigma2_depth,
        }

    def render(self) -> str:
        """One-line human rendering (diagnosis reports, CLI summaries)."""
        return (
            f"np_calls={self.np_calls} "
            f"sigma2_dispatches={self.sigma2_dispatches} "
            f"nodes={self.nodes} "
            f"max_sigma2_depth={self.max_sigma2_depth}"
        )


def _tally(window: _Window, thread: int) -> OracleObservation:
    """``thread``'s tally in ``window``."""
    return window.get(thread) or window.setdefault(thread, OracleObservation())


def note_np_call() -> None:
    """Tick one NP-oracle invocation."""
    NP_CALLS.inc()
    windows = _ACTIVE.get()
    if windows:
        thread = threading.get_ident()
        for window in windows:
            _tally(window, thread).np_calls += 1


def note_nodes(count: int = 1) -> None:
    """Tick ``count`` brute-force search nodes."""
    SEARCH_NODES.inc(count)
    windows = _ACTIVE.get()
    if windows:
        thread = threading.get_ident()
        for window in windows:
            _tally(window, thread).nodes += count


def current_dispatch_depth() -> int:
    """The Σ₂ᵖ dispatch nesting depth of the calling context."""
    return _DISPATCH_DEPTH.get()


def _note_dispatch(depth: int) -> None:
    SIGMA2_DISPATCHES.inc()
    MAX_DISPATCH_DEPTH.set_max(depth)
    windows = _ACTIVE.get()
    if windows:
        thread = threading.get_ident()
        for window in windows:
            tally = _tally(window, thread)
            tally.sigma2_dispatches += 1
            tally.max_sigma2_depth = max(tally.max_sigma2_depth, depth)


@contextmanager
def sigma2_dispatch() -> Iterator[None]:
    """One Σ₂ᵖ-oracle dispatch; nested dispatches raise the depth."""
    depth = _DISPATCH_DEPTH.get() + 1
    token = _DISPATCH_DEPTH.set(depth)
    _note_dispatch(depth)
    try:
        yield
    finally:
        _DISPATCH_DEPTH.reset(token)


def note_sigma2_dispatch() -> None:
    """A degenerate (no inner work) Σ₂ᵖ dispatch, e.g. the machine's
    ``k* = 0`` branch that answers with a single plain SAT call."""
    _note_dispatch(_DISPATCH_DEPTH.get() + 1)


def open_windows() -> Tuple[_Window, ...]:
    """The windows open in the calling context, for work that is charged
    later (a solver checkout is charged when it is released)."""
    return _ACTIVE.get()


def charge_solver_stats(
    windows: Tuple[_Window, ...],
    before: Dict[str, int],
    after: Dict[str, int],
) -> None:
    """Add the CDCL statistics one solver spent between two snapshots of
    its counters to ``windows`` (from :func:`open_windows`)."""
    thread = threading.get_ident()
    for window in windows:
        stats = _tally(window, thread).solver_stats
        for name, value in after.items():
            stats[name] = stats.get(name, 0) + value - before.get(name, 0)


def counts_as_sigma2_dispatch(fn):
    """Mark a method as a Σ₂ᵖ-oracle primitive realization."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with sigma2_dispatch():
            return fn(*args, **kwargs)

    wrapper._counts_as_sigma2_dispatch = True
    return wrapper


@contextmanager
def observe() -> Iterator[OracleObservation]:
    """Capture the oracle work of a code window.

    Only ticks from the calling context (and contexts copied from it
    inside the window) count.  The yielded :class:`OracleObservation` is
    filled when the block exits (including on error — a budget trip
    mid-query still leaves a meaningful partial observation behind);
    later ticks never change it.
    """
    observation = OracleObservation()
    window: _Window = {}
    token = _ACTIVE.set(_ACTIVE.get() + (window,))
    try:
        yield observation
    finally:
        _ACTIVE.reset(token)
        stats = observation.solver_stats
        for tally in list(window.values()):
            observation.np_calls += tally.np_calls
            observation.sigma2_dispatches += tally.sigma2_dispatches
            observation.nodes += tally.nodes
            observation.max_sigma2_depth = max(
                observation.max_sigma2_depth, tally.max_sigma2_depth
            )
            for name, value in tally.solver_stats.items():
                stats[name] = stats.get(name, 0) + value


def record_plan_outcome(plan, observation: OracleObservation) -> None:
    """Feed one planned query's predicted-vs-actual into the metrics.

    ``plan`` is a :class:`~repro.analysis.planner.QueryPlan` (duck-typed
    to keep this module free of analysis imports).  The ratio uses
    ``(actual + 1) / (predicted + 1)`` so zero-call fast paths land in
    the 1.0 bucket instead of dividing by zero.
    """
    PLANNER_QUERIES.labels(procedure=plan.procedure).inc()
    ratio = (observation.np_calls + 1.0) / (plan.predicted_np_calls + 1.0)
    PLANNER_NP_RATIO.observe(ratio)


def totals() -> OracleObservation:
    """Process-lifetime totals (monotone; never reset by queries)."""
    return OracleObservation(
        np_calls=NP_CALLS.value,
        sigma2_dispatches=SIGMA2_DISPATCHES.value,
        nodes=SEARCH_NODES.value,
        max_sigma2_depth=MAX_DISPATCH_DEPTH.value,
    )
