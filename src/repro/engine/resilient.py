"""The deadline-governed, fault-tolerant ("resilient") evaluation engine.

:class:`ResilientSemantics` wraps any concrete
:class:`~repro.semantics.base.Semantics` instance and runs every decision
entry point under a :class:`~repro.runtime.budget.Budget`, degrading
gracefully instead of hanging or propagating transient faults.  The
degradation ladder, in order:

1. **retry with backoff** — a transient fault
   (:class:`~repro.runtime.faults.FaultInjected`) triggers up to
   ``retry.max_retries`` fresh attempts, sleeping an exponentially
   growing delay between them;
2. **fallback engine** — when the primary keeps faulting, the alternate
   engine (by default the brute enumerator, which shares no SAT-call
   fault surface) answers instead; the value is still *exact*, the
   outcome is merely :attr:`~repro.runtime.outcome.Status.DEGRADED`;
3. **structured timeout** — a tripped budget converts to
   ``Outcome(status=TIMEOUT, partial=<resources spent>)`` rather than an
   unbounded hang;
4. **failure** — no fallback and retries exhausted:
   ``Outcome(status=FAILED)`` carrying the last exception.

Two surfaces:

* :meth:`ResilientSemantics.run` — the non-raising API: always returns an
  :class:`~repro.runtime.outcome.Outcome`;
* the strict :class:`~repro.semantics.base.Semantics` interface
  (``infers`` / ``model_set`` / ...) — returns the plain value for
  ``OK``/``DEGRADED`` outcomes and re-raises the underlying exception
  otherwise, so with faults disabled and an unbounded budget the wrapper
  is answer-for-answer identical to its inner engine.

Obtain instances through ``get_semantics(name, engine="resilient")`` or
``DatabaseSession(db, engine="resilient")`` rather than constructing
directly; the registry routes the ``"resilient"`` engine name here and
supplies the brute fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Union

from ..errors import BudgetExceededError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..logic.interpretation import Interpretation
from ..obs import trace as _trace
from ..runtime.budget import (
    RUNTIME_STATS,
    Budget,
    BudgetExceeded,
    budget_scope,
)
from ..runtime.faults import FaultInjected
from ..runtime.outcome import Outcome, Status
from ..sat.incremental import checkout_token
from ..semantics.base import Semantics


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient engine retries transient faults.

    Attributes:
        max_retries: additional attempts after the first (0 = one shot).
        backoff_ms: delay before the first retry.
        backoff_factor: multiplier applied to the delay per retry.
        sleeper: the sleep function (injectable so tests run instantly).
    """

    max_retries: int = 2
    backoff_ms: float = 10.0
    backoff_factor: float = 2.0
    sleeper: Callable[[float], None] = field(
        default=time.sleep, compare=False, repr=False
    )

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_ms < 0 or self.backoff_factor < 0:
            raise ValueError("backoff parameters must be >= 0")

    def delays_ms(self) -> Iterator[float]:
        """The backoff delay sequence, one entry per retry."""
        delay = self.backoff_ms
        for _ in range(self.max_retries):
            yield delay
            delay *= self.backoff_factor


class ResilientSemantics(Semantics):
    """Deadline-governed, fault-tolerant façade over a semantics instance.

    Args:
        inner: the primary semantics (usually oracle-engined).
        fallback: the alternate engine for the DEGRADED path (``None``
            disables step 2 of the ladder).
        budget: limits enforced on every entry-point call (the neutral
            default never trips).
        retry: the transient-fault :class:`RetryPolicy`.

    Unknown attributes (``p``, ``z``, ``partition``, ...) delegate to
    ``inner``, so the wrapper is a drop-in replacement.
    """

    def __init__(
        self,
        inner: Semantics,
        fallback: Optional[Semantics] = None,
        budget: Optional[Budget] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if isinstance(inner, ResilientSemantics):
            inner = inner.inner
        # Deliberately skip Semantics.__init__: "resilient" is not a
        # concrete decision engine, it is this façade.
        self.inner = inner
        self.fallback = fallback
        self.engine = "resilient"
        self.name = inner.name
        self.aliases = inner.aliases
        self.description = inner.description
        self.budget = budget if budget is not None else Budget()
        self.retry = retry if retry is not None else RetryPolicy()
        self.outcome_counts: Dict[str, int] = {
            s.value: 0 for s in Status
        }

    # ------------------------------------------------------------------
    # The non-raising API
    # ------------------------------------------------------------------
    def run(self, method: str, db: DisjunctiveDatabase, *args) -> Outcome:
        """Run ``inner.<method>(db, *args)`` under the budget and the
        degradation ladder, always returning an
        :class:`~repro.runtime.outcome.Outcome`."""
        # One checkout window per run(): a retry re-acquires the very
        # solver the failed attempt just released, which must not count
        # as a fresh pool reuse in session.stats().
        with checkout_token():
            return self._run_ladder(method, db, *args)

    @staticmethod
    def _event(name: str, **attributes) -> None:
        """Attach a ladder event to the enclosing span, if tracing."""
        tracer = _trace.active_tracer()
        if not tracer.is_noop:
            span = tracer.current()
            if span is not None:
                span.add_event(name, **attributes)

    def _run_ladder(
        self, method: str, db: DisjunctiveDatabase, *args
    ) -> Outcome:
        call = getattr(self.inner, method)
        attempts = 0
        faults = 0
        last_exc: Optional[BaseException] = None
        delays = self.retry.delays_ms()
        while attempts <= self.retry.max_retries:
            attempts += 1
            try:
                with budget_scope(self.budget) as scope:
                    value = call(db, *args)
                    usage = scope.usage()
                return self._record(Outcome(
                    status=Status.OK,
                    value=value,
                    usage=usage,
                    attempts=attempts,
                    engine_used=self.inner.engine,
                    faults=faults,
                ))
            except BudgetExceeded as exc:
                return self._timeout(exc, attempts, faults)
            except FaultInjected as exc:
                faults += 1
                last_exc = exc
                delay = next(delays, None)
                if delay is not None:
                    RUNTIME_STATS.inc("retries")
                    self._event(
                        "retry",
                        attempt=attempts,
                        delay_ms=delay,
                        fault=type(exc).__name__,
                    )
                    if delay > 0:
                        self.retry.sleeper(delay / 1000.0)
        # Retries exhausted on transient faults: degrade to the fallback
        # engine (which shares no SAT fault surface with the primary).
        if self.fallback is not None:
            RUNTIME_STATS.inc("fallbacks")
            self._event(
                "fallback",
                engine=self.fallback.engine,
                faults=faults,
            )
            try:
                with budget_scope(self.budget) as scope:
                    # static: fallback-edge -- degraded-mode brute dispatch
                    value = getattr(self.fallback, method)(db, *args)
                    usage = scope.usage()
                return self._record(Outcome(
                    status=Status.DEGRADED,
                    value=value,
                    usage=usage,
                    attempts=attempts,
                    engine_used=self.fallback.engine,
                    faults=faults,
                    error=f"primary engine faulted {faults}x: {last_exc}",
                ))
            except BudgetExceeded as exc:
                return self._timeout(exc, attempts, faults)
            except FaultInjected as exc:
                # A fault plan aggressive enough to break even the
                # fallback: report failure.
                faults += 1
                last_exc = exc
        return self._record(Outcome(
            status=Status.FAILED,
            attempts=attempts,
            faults=faults,
            error=f"all retries faulted, no engine answered: {last_exc}",
            exception=last_exc,
        ))

    def _timeout(
        self, exc: BudgetExceeded, attempts: int, faults: int
    ) -> Outcome:
        RUNTIME_STATS.inc("timeouts")
        self._event(
            "timeout", resource=exc.resource, attempts=attempts,
        )
        return self._record(Outcome(
            status=Status.TIMEOUT,
            usage=exc.usage,
            partial=exc.usage,
            attempts=attempts,
            faults=faults,
            error=str(exc),
            exception=exc,
        ))

    def _record(self, outcome: Outcome) -> Outcome:
        self.outcome_counts[outcome.status.value] += 1
        return outcome

    def stats(self) -> Dict[str, int]:
        """Outcome counts of this instance, by terminal status."""
        return dict(self.outcome_counts)

    # ------------------------------------------------------------------
    # The strict Semantics interface
    # ------------------------------------------------------------------
    def _strict(self, method: str, db: DisjunctiveDatabase, *args):
        outcome = self.run(method, db, *args)
        if outcome.ok:
            return outcome.value
        if outcome.exception is not None:
            raise outcome.exception
        raise BudgetExceededError(  # pragma: no cover - defensive
            outcome.error or "resilient evaluation failed"
        )

    def validate(self, db: DisjunctiveDatabase) -> None:
        # Runs eagerly (outside the ladder) so inapplicable databases
        # raise exactly as they would on the inner engine.
        self.inner.validate(db)

    def cache_params(self):
        return self.inner.cache_params()

    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        self.validate(db)
        return self._strict("model_set", db)

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        self.validate(db)
        return self._strict("infers", db, formula)

    def infers_literal(
        self, db: DisjunctiveDatabase, literal: Union[Literal, str]
    ) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        self.validate(db)
        return self._strict("infers_literal", db, literal)

    def infers_brave(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        self.validate(db)
        return self._strict("infers_brave", db, formula)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        self.validate(db)
        return self._strict("has_model", db)

    # ------------------------------------------------------------------
    def __getattr__(self, attr: str):
        # Only reached for attributes not found normally; delegate to the
        # wrapped semantics (partition params, closure helpers, ...).
        return getattr(self.inner, attr)

    def __repr__(self) -> str:
        return (
            f"ResilientSemantics({self.inner!r}, "
            f"budget={self.budget.render()!r})"
        )
