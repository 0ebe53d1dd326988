"""High-level query sessions.

A :class:`DatabaseSession` wraps one database and answers repeated
queries under any of the semantics, reusing solver state where the
engines allow it and attaching oracle-usage accounting and certificates
to every answer.  This is the interface an application (or the CLI in a
future interactive mode) would program against:

    session = DatabaseSession(parse_database("a | b. c :- a."))
    answer = session.ask("~a | ~b", semantics="egcwa")
    answer.verdict          # True
    answer.sat_calls        # NP-oracle calls spent on this query
    session.ask("c").certificate.model   # a counter-model, checkable
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Union

from .errors import ReproError
from .obs import trace as _trace
from .obs.accounting import (
    OracleObservation,
    observe,
    record_plan_outcome,
)
from .obs.certify import (
    DEFAULT_CERTIFIER,
    Certifier,
    ComplexityCertificate,
    TASK_FOR_METHOD,
)
from .sat.incremental import solver_pool_stats
from .sat.types import SolverStats
from .logic.atoms import Literal
from .logic.database import DisjunctiveDatabase
from .logic.formula import Formula
from .logic.parser import parse_formula
from .runtime.budget import RUNTIME_STATS, Budget
from .semantics import Semantics, get_semantics, resolve_name
from .semantics.base import check_engine
from .semantics.explain import (
    CounterModelCertificate,
    explain_non_inference,
)


@dataclass
class Answer:
    """The result of one session query.

    Attributes:
        verdict: the inference verdict.
        semantics: canonical semantics name used.
        query: the parsed query formula.
        sat_calls: NP-oracle calls this query spent.
        certificate: for a negative cautious verdict, a checkable
            counter-model (``None`` for positive verdicts, and for
            engines without a certificate path).
        solver_stats: per-query *delta* of the pooled CDCL search
            statistics (decisions, conflicts, propagations, ...).  Pooled
            solvers outlive queries, so their raw counters are lifetime
            totals; the solver pool charges each checkout's difference
            to the query's observation window, so this is only what
            this query spent.
        observation: the oracle work this query was observed doing
            (NP calls, Σ₂ᵖ dispatches, nodes, dispatch depth).
        complexity: the Table 1/Table 2 complexity certificate for this
            query — the observation scored against the claimed class
            (``None`` for queries outside the tables, e.g. brave mode).
        plan: for ``engine="planned"`` sessions, the
            :class:`~repro.analysis.planner.QueryPlan` the fragment
            planner chose for this query — which procedure ran and the
            complexity class it claims (``None`` on other engines).
    """

    verdict: bool
    semantics: str
    query: Formula
    sat_calls: int = 0
    certificate: Optional[CounterModelCertificate] = None
    solver_stats: Optional[Dict[str, int]] = None
    observation: Optional[OracleObservation] = None
    complexity: Optional[ComplexityCertificate] = None
    plan: Optional[object] = None

    def __bool__(self) -> bool:
        return self.verdict

    def render(self) -> str:
        text = (
            f"{self.semantics.upper()} |= {self.query}: {self.verdict}"
            f"  [{self.sat_calls} NP-oracle calls]"
        )
        if self.certificate is not None:
            text += f"\n  counter-model: {self.certificate.model}"
        if self.complexity is not None and not self.complexity.ok:
            text += f"\n  complexity: {self.complexity.render()}"
        if self.plan is not None:
            text += f"\n  plan: {self.plan.render()}"
        return text


class DatabaseSession:
    """Repeated queries against one database.

    Args:
        db: the database (immutable; derive a new session for updates).
        default_semantics: semantics used when a query names none.
        engine: forwarded to every semantics instance; ``"cached"``
            routes every query through the process-wide memo cache
            (:mod:`repro.engine`), so repeated queries — also across
            sessions over structurally equal databases — are answered
            from cache; ``"resilient"`` runs every query under the
            session budget with retry/fallback degradation
            (:mod:`repro.engine.resilient`); ``"planned"`` routes each
            query through the fragment planner
            (:mod:`repro.analysis`), which dispatches Horn and
            head-cycle-free databases to cheaper sound procedures and
            records the chosen :class:`~repro.analysis.planner.QueryPlan`
            on the answer — with the certifier's envelope *tightened*
            to the fragment's class.
        budget: resource limits for ``engine="resilient"`` sessions
            (wall-clock ms, SAT calls, nodes); rejected for other
            engines, where nothing would enforce it.
        certificates: attach counter-model certificates to negative
            cautious answers (costs one extra witness search).
        certifier: the complexity certifier scoring every query against
            its Table 1/Table 2 cell (pass a strict
            :class:`~repro.obs.certify.Certifier` to raise on violation,
            or ``None`` to disable certification).  Defaults to the
            process-wide non-strict
            :data:`~repro.obs.certify.DEFAULT_CERTIFIER`, which records
            violations as span events and metrics without raising.
    """

    def __init__(
        self,
        db: DisjunctiveDatabase,
        default_semantics: str = "egcwa",
        engine: str = "oracle",
        budget: Optional[Budget] = None,
        certificates: bool = True,
        certifier: Optional[Certifier] = DEFAULT_CERTIFIER,
    ):
        check_engine(engine)
        if budget is not None and engine != "resilient":
            raise ReproError(
                "budget= requires engine='resilient' "
                f"(got engine={engine!r})"
            )
        self.db = db
        self.default_semantics = resolve_name(default_semantics)
        self.engine = engine
        self.budget = budget
        self.certificates = certificates
        self.certifier = certifier
        self._semantics_cache: Dict[str, Semantics] = {}
        self.total_sat_calls = 0
        self.queries_answered = 0
        self.certificates_checked = 0
        self.certificate_violations = 0
        self.solver_stat_totals: Dict[str, int] = {}
        self.plan_procedure_counts: Dict[str, int] = {}

    def _note_query(self, window: OracleObservation) -> Dict[str, int]:
        """Add one query's window to the session totals; returns its
        CDCL statistics with every counter present."""
        solver_stats = SolverStats(**window.solver_stats).snapshot()
        for name, value in solver_stats.items():
            self.solver_stat_totals[name] = (
                self.solver_stat_totals.get(name, 0) + value
            )
        self.total_sat_calls += window.np_calls
        self.queries_answered += 1
        return solver_stats

    def _note_plan(
        self, span, plan, window: OracleObservation
    ) -> None:
        """Record a planned query's predicted-vs-actual on the span, the
        process metrics and the session's per-procedure tally."""
        if plan is None:
            return
        span.set_attributes(
            plan=plan.procedure,
            predicted_np_calls=plan.predicted_np_calls,
            actual_np_calls=window.np_calls,
            predicted_sigma2=plan.predicted_sigma2,
            actual_sigma2=window.sigma2_dispatches,
            predicted_nodes=plan.predicted_nodes,
            actual_nodes=window.nodes,
        )
        record_plan_outcome(plan, window)
        self.plan_procedure_counts[plan.procedure] = (
            self.plan_procedure_counts.get(plan.procedure, 0) + 1
        )

    # ------------------------------------------------------------------
    def _semantics(self, name: Optional[str]) -> Semantics:
        key = resolve_name(name or self.default_semantics)
        if key not in self._semantics_cache:
            kwargs: Dict = {"engine": self.engine}
            if self.budget is not None:
                kwargs["budget"] = self.budget
            self._semantics_cache[key] = get_semantics(key, **kwargs)
        return self._semantics_cache[key]

    def _parse(self, query: Union[str, Formula]) -> Formula:
        if isinstance(query, str):
            return parse_formula(query)
        return query

    def _certify(
        self,
        engine: Semantics,
        method: str,
        window: OracleObservation,
        span,
        plan=None,
    ) -> Optional[ComplexityCertificate]:
        """Score one query observation against its Table 1/2 cell — or,
        when the fragment planner took a fast path, against the
        *tightened* fragment envelope (a Horn query that issued even one
        NP call is a violation).

        Returns ``None`` when certification is disabled or the entry
        point has no table cell; a strict certifier raises
        :class:`~repro.obs.certify.CertificationError` on violation.
        """
        if self.certifier is None:
            return None
        task = TASK_FOR_METHOD.get(method)
        if task is None:
            return None
        certificate = self.certifier.check(
            engine.name, task, self.db, window, self.engine, span=span,
            plan=plan,
        )
        self.certificates_checked += 1
        if not certificate.ok:
            self.certificate_violations += 1
        return certificate

    # ------------------------------------------------------------------
    def ask(
        self,
        query: Union[str, Formula],
        semantics: Optional[str] = None,
        mode: str = "cautious",
    ) -> Answer:
        """Answer a (cautious or brave) inference query.

        Args:
            query: formula text or AST.
            semantics: semantics name (default: the session default).
            mode: ``"cautious"`` (truth in all selected models) or
                ``"brave"`` (truth in at least one).
        """
        engine = self._semantics(semantics)
        formula = self._parse(query)
        with _trace.active_tracer().span(
            "query.ask",
            semantics=engine.name,
            engine=self.engine,
            mode=mode,
            query=str(formula),
        ) as span:
            with observe() as window:
                if mode == "cautious":
                    verdict = engine.infers(self.db, formula)
                elif mode == "brave":
                    verdict = engine.infers_brave(self.db, formula)
                else:
                    raise ValueError(f"unknown mode {mode!r}")
            plan = getattr(engine, "last_plan", None)
            complexity = (
                self._certify(engine, "infers", window, span, plan=plan)
                if mode == "cautious"
                else None
            )
            span.set_attributes(verdict=verdict, sat_calls=window.np_calls)
            self._note_plan(span, plan, window)
        certificate = None
        if (
            mode == "cautious"
            and not verdict
            and self.certificates
            and self.engine in ("oracle", "cached", "resilient")
        ):
            # The witness search stays OUTSIDE the certified observation
            # window: it is explanatory extra work, not part of the
            # decision procedure the table cell bounds.
            try:
                certificate = explain_non_inference(
                    self.db, formula, engine.name
                )
            except Exception:
                certificate = None  # engines without a certificate path
        return Answer(
            verdict=verdict,
            semantics=engine.name,
            query=formula,
            sat_calls=window.np_calls,
            certificate=certificate,
            solver_stats=self._note_query(window),
            observation=window,
            complexity=complexity,
            plan=plan,
        )

    def ask_literal(
        self,
        literal: Union[str, Literal],
        semantics: Optional[str] = None,
    ) -> Answer:
        """Literal inference (the paper's first column)."""
        engine = self._semantics(semantics)
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        with _trace.active_tracer().span(
            "query.ask_literal",
            semantics=engine.name,
            engine=self.engine,
            literal=str(literal),
        ) as span:
            with observe() as window:
                verdict = engine.infers_literal(self.db, literal)
            plan = getattr(engine, "last_plan", None)
            complexity = self._certify(
                engine, "infers_literal", window, span, plan=plan
            )
            span.set_attributes(verdict=verdict, sat_calls=window.np_calls)
            self._note_plan(span, plan, window)
        from .semantics.base import literal_formula

        return Answer(
            verdict=verdict,
            semantics=engine.name,
            query=literal_formula(literal),
            sat_calls=window.np_calls,
            solver_stats=self._note_query(window),
            observation=window,
            complexity=complexity,
            plan=plan,
        )

    def models(self, semantics: Optional[str] = None) -> FrozenSet:
        """The selected model set (may be exponential)."""
        return self._semantics(semantics).model_set(self.db)

    def has_model(self, semantics: Optional[str] = None) -> bool:
        """Model existence (the paper's third column)."""
        engine = self._semantics(semantics)
        with _trace.active_tracer().span(
            "query.has_model",
            semantics=engine.name,
            engine=self.engine,
        ) as span:
            with observe() as window:
                verdict = engine.has_model(self.db)
            plan = getattr(engine, "last_plan", None)
            self._certify(engine, "has_model", window, span, plan=plan)
            span.set_attribute("verdict", verdict)
            self._note_plan(span, plan, window)
        return verdict

    def extended(self, clauses) -> "DatabaseSession":
        """A new session over the database extended with ``clauses``
        (sessions are immutable, like their databases)."""
        return DatabaseSession(
            self.db.with_clauses(clauses),
            default_semantics=self.default_semantics,
            engine=self.engine,
            budget=self.budget,
            certificates=self.certificates,
            certifier=self.certifier,
        )

    def stats(self) -> Dict[str, int]:
        """Aggregate session accounting, merged with the process-wide
        runtime counters (budgets tripped, faults injected, retries,
        fallbacks, timeouts — see
        :data:`repro.runtime.budget.RUNTIME_STATS`) and the solver-pool
        counters.  CDCL search work (``solver_*`` keys) is the *sum of
        this session's per-query deltas*, not the pool's lifetime
        totals — other sessions sharing the pool don't leak in."""
        stats = {
            "queries_answered": self.queries_answered,
            "total_sat_calls": self.total_sat_calls,
            "semantics_cached": len(self._semantics_cache),
            "certificates_checked": self.certificates_checked,
            "certificate_violations": self.certificate_violations,
        }
        stats.update(RUNTIME_STATS.snapshot())
        stats.update(solver_pool_stats())
        stats.update(
            {
                f"plan_{procedure.replace('-', '_')}": count
                for procedure, count in sorted(
                    self.plan_procedure_counts.items()
                )
            }
        )
        stats.update(
            {
                f"solver_{name}": value
                for name, value in sorted(self.solver_stat_totals.items())
            }
        )
        return stats

    def cache_stats(self) -> Dict:
        """Statistics of the process-wide result cache backing
        ``engine="cached"`` sessions (see
        :meth:`repro.engine.cache.EngineCache.stats`)."""
        from .engine.cache import cache_stats

        return cache_stats()
