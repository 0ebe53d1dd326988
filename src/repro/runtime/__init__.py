"""Resource governance: budgets, deadlines, and deterministic faults.

This subsystem makes evaluation *bounded* and *testably failure-tolerant*.
It sits below :mod:`repro.engine` (whose ``resilient`` engine builds on
it) and is imported by the SAT, enumeration and oracle layers for their
cooperative tick hooks:

* :mod:`repro.runtime.budget` — :class:`Budget` limits (wall-clock ms,
  SAT-call ceiling, enumeration-node ceiling), the active
  :class:`BudgetScope`, the typed :class:`BudgetExceeded`, and the
  process-wide :data:`RUNTIME_STATS` counters;
* :mod:`repro.runtime.faults` — seeded, deterministic :class:`FaultPlan`
  injection of latency and transient SAT faults;
* :mod:`repro.runtime.outcome` — the structured :class:`Outcome` /
  :class:`Status` the resilient engine returns instead of hanging.

See ``docs/robustness_guide.md`` for the budget model and the
degradation ladder.
"""

from .budget import (
    NODE_CHECK_INTERVAL,
    RUNTIME_STATS,
    Budget,
    BudgetExceeded,
    BudgetScope,
    ResourceUsage,
    RuntimeStats,
    budget_scope,
    check_deadline,
    current_scope,
    note_nodes,
    note_sat_call,
)
from ..obs.accounting import note_np_call
from .faults import (
    FaultInjected,
    FaultPlan,
    fault_plan,
    maybe_fault_sat_call,
)
from .outcome import Outcome, Status


def observe_sat_call() -> None:
    """The SAT layer's single per-``solve`` hook: record the NP-oracle
    invocation in the observability accounting (never raises — it must
    run even for the call that trips a budget), tick the active budget
    scope (may raise :class:`BudgetExceeded`), then apply the active
    fault plan (may sleep or raise :class:`FaultInjected`)."""
    note_np_call()
    note_sat_call()
    maybe_fault_sat_call()


def runtime_stats() -> dict:
    """Snapshot of the process-wide runtime counters."""
    return RUNTIME_STATS.snapshot()


__all__ = [
    "NODE_CHECK_INTERVAL",
    "RUNTIME_STATS",
    "Budget",
    "BudgetExceeded",
    "BudgetScope",
    "FaultInjected",
    "FaultPlan",
    "Outcome",
    "ResourceUsage",
    "RuntimeStats",
    "Status",
    "budget_scope",
    "check_deadline",
    "current_scope",
    "fault_plan",
    "maybe_fault_sat_call",
    "note_nodes",
    "note_sat_call",
    "observe_sat_call",
    "runtime_stats",
]
