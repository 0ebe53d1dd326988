"""Deterministic fault injection.

A :class:`FaultPlan` turns the failure modes a production deployment
actually sees — slow oracle calls and transient solver errors — into
*reproducible, in-process* events, so every degradation path of the
resilient engine is testable without real flakiness:

* **latency** — a seeded fraction of SAT calls sleeps ``latency_ms``
  before running (burns wall-clock budget, exercising deadlines);
* **transient SAT faults** — a seeded fraction of SAT calls raises
  :class:`FaultInjected` instead of solving (exercising retry/backoff).

Every decision is drawn from an *independent* seeded stream per channel
(``random.Random(f"{seed}:sat")`` etc., the :mod:`repro.workloads.
random_db` convention), so the sat-fault sequence does not depend on
whether latency is injected too: a plan's behaviour is a pure function
of its seed and each channel's call ordinal.

Plans install with :func:`fault_plan` (a context manager) and are
consulted by the same hooks that tick budgets; with no plan active the
hooks cost one ``ContextVar`` read.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional

from ..errors import ReproError
from .budget import RUNTIME_STATS


class FaultInjected(ReproError):
    """A *transient* injected fault (a SAT call that 'failed').  The
    resilient engine treats it as retryable."""


class FaultPlan:
    """A seeded, deterministic fault-injection schedule.

    Args:
        seed: master seed; every decision stream derives from it.
        sat_fault_rate: probability a SAT call raises
            :class:`FaultInjected`.
        latency_ms: sleep injected into selected SAT calls.
        latency_rate: probability a SAT call receives the latency
            (defaults to 1.0 when ``latency_ms`` is set, else 0).
        max_sat_faults: cap on injected SAT faults (``None`` = unlimited);
            with ``sat_fault_rate=1.0`` this makes "fails exactly N times
            then succeeds" schedules for retry tests.
        sleeper: the sleep function latency uses (injectable for tests).
    """

    def __init__(
        self,
        seed: int = 0,
        sat_fault_rate: float = 0.0,
        latency_ms: float = 0.0,
        latency_rate: Optional[float] = None,
        max_sat_faults: Optional[int] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if not 0.0 <= sat_fault_rate <= 1.0:
            raise ValueError(
                f"sat_fault_rate must be in [0, 1], got {sat_fault_rate}"
            )
        if latency_rate is None:
            latency_rate = 1.0 if latency_ms > 0 else 0.0
        self.seed = seed
        self.sat_fault_rate = sat_fault_rate
        self.latency_ms = latency_ms
        self.latency_rate = latency_rate
        self.max_sat_faults = max_sat_faults
        self._sleeper = sleeper
        # Independent streams: each channel's decisions depend only on
        # the seed and that channel's own call ordinal.
        self._sat_rng = random.Random(f"{seed}:sat")
        self._latency_rng = random.Random(f"{seed}:latency")
        self.sat_calls_seen = 0
        self.sat_faults = 0
        self.latency_injections = 0

    # ------------------------------------------------------------------
    def on_sat_call(self) -> None:
        """Consulted once per SAT ``solve``; may sleep and/or raise
        :class:`FaultInjected`."""
        self.sat_calls_seen += 1
        if (
            self.latency_rate > 0
            and self._latency_rng.random() < self.latency_rate
        ):
            self.latency_injections += 1
            RUNTIME_STATS.inc("latency_injections")
            if self.latency_ms > 0:
                self._sleeper(self.latency_ms / 1000.0)
        if (
            self.sat_fault_rate > 0
            and self._sat_rng.random() < self.sat_fault_rate
            and (
                self.max_sat_faults is None
                or self.sat_faults < self.max_sat_faults
            )
        ):
            self.sat_faults += 1
            RUNTIME_STATS.inc("sat_faults_injected")
            raise FaultInjected(
                f"injected transient SAT fault #{self.sat_faults} "
                f"(seed {self.seed}, call {self.sat_calls_seen})"
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Per-plan injection counters as a flat dict."""
        return {
            "sat_calls_seen": self.sat_calls_seen,
            "sat_faults": self.sat_faults,
            "latency_injections": self.latency_injections,
        }

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, sat_fault_rate={self.sat_fault_rate}, "
            f"latency_ms={self.latency_ms})"
        )


#: The active plan of the current context (thread/task-local).
_ACTIVE_PLAN: "ContextVar[Optional[FaultPlan]]" = ContextVar(
    "repro_fault_plan", default=None
)


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block::

        with fault_plan(FaultPlan(seed=7, sat_fault_rate=0.3)):
            resilient.infers(db, formula)
    """
    token = _ACTIVE_PLAN.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLAN.reset(token)


def maybe_fault_sat_call() -> None:
    """Hook for the SAT layer: apply the active plan's per-call faults
    (no-op when no plan is installed)."""
    plan = _ACTIVE_PLAN.get()
    if plan is not None:
        plan.on_sat_call()
