"""The multi-tenant query service behind the serve daemon.

:class:`QueryService` is protocol-agnostic: the HTTP layer
(:mod:`repro.serve.server`) translates requests into
:class:`QueryItem` values and awaits :meth:`QueryService.submit`; the
service owns everything stateful:

* **tenant registry** — each tenant (the ``X-Tenant`` header) gets its
  own database namespace and its own
  :class:`~repro.session.DatabaseSession` per ``(database, semantics)``,
  so one tenant's sessions, certificates and counters never mix with
  another's even when the database texts are identical;
* **admission control** — a bounded per-tenant pending count; a tenant
  that already has ``max_queue`` queued + running queries gets a
  structured 429 *before* any work is enqueued;
* **cross-request batching** — concurrent queries against the same
  ``(tenant, database, semantics)`` coalesce into one batch that runs on
  a single session inside a single solver-pool checkout window: one
  fragment/plan profile, one warm CDCL scope, many answers fanned back
  out.  Queries for different tenants or different semantics never share
  a batch, however equal their database texts hash.

Evaluation is CPU-bound synchronous code, so batches execute on a
bounded thread pool; every global the workers touch (engine LRU cache,
solver pool, metrics registry, runtime counters) takes its own lock, and
the per-key worker loop guarantees a session is only ever driven by one
thread at a time.

Per-request QoS rides the cooperative :class:`~repro.runtime.budget.
Budget` hooks: the wall-clock / SAT-call / node ceilings from the
request run the query under a :func:`~repro.runtime.budget.budget_scope`
regardless of engine, and a tripped scope maps to a structured HTTP
error — wall-clock timeout → 503 with ``Retry-After``, SAT-call or node
ceiling → 429.  Transient faults (injected or real) map to 503 without
poisoning the session: the next query on the same session is unaffected.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import asyncio
import contextvars

from ..errors import ReproError
from ..logic.database import DisjunctiveDatabase
from ..logic.parser import parse_database
from ..obs.accounting import observe
from ..obs.certify import DEFAULT_CERTIFIER, Certifier
from ..obs.metrics import METRICS
from ..runtime.budget import Budget, BudgetExceeded, budget_scope
from ..runtime.faults import FaultInjected, FaultPlan, fault_plan
from ..sat.incremental import checkout_token, solver_pool_stats
from ..semantics import resolve_name
from ..semantics.base import check_engine
from ..session import DatabaseSession
from .http import HttpError

#: Tasks the service exposes, mapped onto session entry points.
TASKS = ("infers", "infers_literal", "has_model", "model_set")

#: Default per-tenant admission bound (queued + running queries).
DEFAULT_MAX_QUEUE = 64

#: Default evaluation thread count.
DEFAULT_WORKERS = 4

#: Default refusal threshold for ``model_set`` responses.
DEFAULT_MAX_MODELS = 10_000

#: Suggested client back-off for retryable errors, seconds.
RETRY_AFTER_S = 1.0

_BATCH_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def canonical_db_id(db: DisjunctiveDatabase) -> str:
    """A stable content id: SHA-256 of the canonical rendering.

    The clause text alone is not the whole database — the paper's
    vocabulary ``V`` may strictly contain the occurring atoms, and the
    closed-world semantics genuinely depend on the silent atoms (GCWA
    negates an atom no clause mentions).  When the vocabulary is wider
    than the occurring atoms it is folded into the hash, so two
    databases with equal clauses but different universes get different
    ids.
    """
    payload = str(db)
    occurring = frozenset(a for c in db.clauses for a in c.atoms)
    if db.vocabulary != occurring:
        payload += "\n%vocabulary: " + " ".join(sorted(db.vocabulary))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class BatchKey:
    """What may legally share one batch: tenant, database, semantics.

    The key deliberately includes the *tenant*: two tenants uploading
    byte-identical databases still run in separate batches on separate
    sessions (isolation beats the marginal solver reuse, and the engine
    cache still deduplicates the pure derived objects underneath).
    """

    tenant: str
    db_id: str
    semantics: str


@dataclass
class QueryItem:
    """One admitted query, on its way to a batch."""

    tenant: str
    db_id: str
    semantics: str
    task: str
    query: Optional[str] = None
    mode: str = "cautious"
    budget: Optional[Budget] = None

    @property
    def key(self) -> BatchKey:
        return BatchKey(self.tenant, self.db_id, self.semantics)


@dataclass
class ItemResult:
    """The outcome of one item: an HTTP status plus a JSON payload."""

    status: int
    payload: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)


class Tenant:
    """Per-tenant namespace: databases, sessions, counters."""

    def __init__(self, name: str):
        self.name = name
        self.databases: Dict[str, DisjunctiveDatabase] = {}
        self.sessions: Dict[Tuple[str, str], DatabaseSession] = {}
        self.pending = 0
        self.queries = 0
        self.rejects = 0
        self.errors = 0

    def stats(self) -> Dict[str, Any]:
        sessions = self.sessions.values()
        return {
            "databases": len(self.databases),
            "sessions": len(self.sessions),
            "pending": self.pending,
            "queries": self.queries,
            "rejects": self.rejects,
            "errors": self.errors,
            "queries_answered": sum(s.queries_answered for s in sessions),
            "total_sat_calls": sum(s.total_sat_calls for s in sessions),
            "certificates_checked": sum(
                s.certificates_checked for s in sessions
            ),
            "certificate_violations": sum(
                s.certificate_violations for s in sessions
            ),
        }


class _Batch:
    """The pending items of one key (drained whole by the key worker)."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: List[Tuple[QueryItem, "asyncio.Future[ItemResult]"]] = []


@contextmanager
def _maybe(cm):
    """``with cm`` when ``cm`` is not None, else a no-op block."""
    if cm is None:
        yield None
    else:
        with cm as value:
            yield value


class QueryService:
    """The serve daemon's stateful core.  See the module docstring.

    Args:
        engine: the session engine every tenant session uses
            (``"cached"`` by default; ``"planned"`` and ``"resilient"``
            are the other production-shaped choices).
        max_queue: per-tenant admission bound (queued + running).
        workers: evaluation thread count (= maximum concurrent batches).
        max_models: refuse ``model_set`` responses larger than this.
        default_budget: budget applied to requests that set no QoS
            headers (``None`` = unbounded).
        certifier: complexity certifier threaded into every session.
        fault_plans: optional per-tenant
            :class:`~repro.runtime.faults.FaultPlan`, installed around
            that tenant's batches (fault-injection tests and demos).
        batch_hook: test hook called as ``hook(key, width)`` in the
            worker thread immediately before a batch evaluates; a
            blocking hook makes the *next* batch coalesce, which is how
            the batching tests script deterministic widths.
    """

    def __init__(
        self,
        engine: str = "cached",
        max_queue: int = DEFAULT_MAX_QUEUE,
        workers: int = DEFAULT_WORKERS,
        max_models: int = DEFAULT_MAX_MODELS,
        default_budget: Optional[Budget] = None,
        certifier: Optional[Certifier] = DEFAULT_CERTIFIER,
        fault_plans: Optional[Dict[str, FaultPlan]] = None,
        batch_hook: Optional[Callable[[BatchKey, int], None]] = None,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        check_engine(engine)
        self.engine = engine
        self.max_queue = max_queue
        self.workers = workers
        self.max_models = max_models
        self.default_budget = default_budget
        self.certifier = certifier
        self.fault_plans = dict(fault_plans or {})
        self.batch_hook = batch_hook
        self.started_at = time.time()
        self._tenants: Dict[str, Tenant] = {}
        self._batches: Dict[BatchKey, _Batch] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        # Service totals (event-loop confined; tests assert
        # admitted == completed and requests == admitted + rejected).
        self.requests = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.batches = 0
        self.batched_items = 0
        # Instruments (process-wide; registration is idempotent).
        self._m_requests = METRICS.counter(
            "repro_serve_requests_total",
            "Queries received by the serve layer",
            labelnames=("task",),
        )
        self._m_rejects = METRICS.counter(
            "repro_serve_admission_rejects_total",
            "Queries refused at admission (queue bound or unknown database)",
            labelnames=("tenant",),
        )
        self._m_responses = METRICS.counter(
            "repro_serve_responses_total",
            "Serve responses by HTTP status",
            labelnames=("status",),
        )
        self._m_queue_depth = METRICS.gauge(
            "repro_serve_queue_depth",
            "Queries queued or running across all tenants",
        )
        self._m_batches = METRICS.counter(
            "repro_serve_batches_total",
            "Coalesced batches executed",
        )
        self._m_batch_width = METRICS.histogram(
            "repro_serve_batch_width",
            "Queries coalesced into one batch",
            buckets=_BATCH_WIDTH_BUCKETS,
        )
        self._m_latency = METRICS.histogram(
            "repro_serve_latency_ms",
            "Per-query evaluation latency, milliseconds",
            labelnames=("tenant",),
        )

    # ------------------------------------------------------------------
    # Tenant / database registry (event-loop confined)
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> Tenant:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = Tenant(name)
        return state

    def register_database(
        self,
        tenant: str,
        text: str,
        vocabulary: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Parse and register a database under ``tenant``; idempotent
        (re-registering the same content returns the same id).

        ``vocabulary`` widens the universe ``V`` beyond the atoms the
        clause text mentions — without it a database like ``{v3.}`` over
        ``V = {v1, v3}`` would silently collapse to ``V = {v3}`` on the
        wire and the closed-world semantics would answer differently.
        """
        try:
            db = parse_database(text)
        except ReproError as exc:
            raise HttpError(400, "bad_database", str(exc))
        if vocabulary is not None:
            if not all(isinstance(atom, str) for atom in vocabulary):
                raise HttpError(
                    400, "bad_database", "'vocabulary' must be strings"
                )
            db = db.with_vocabulary(vocabulary)
        db_id = canonical_db_id(db)
        state = self.tenant(tenant)
        state.databases[db_id] = db
        return {
            "db": db_id,
            "atoms": len(db.vocabulary),
            "clauses": len(list(db)),
        }

    def list_databases(self, tenant: str) -> Dict[str, Any]:
        state = self.tenant(tenant)
        return {
            "databases": [
                {
                    "db": db_id,
                    "atoms": len(db.vocabulary),
                    "clauses": len(list(db)),
                }
                for db_id, db in sorted(state.databases.items())
            ]
        }

    def _session_for(self, key: BatchKey) -> DatabaseSession:
        state = self.tenant(key.tenant)
        db = state.databases.get(key.db_id)
        if db is None:
            raise HttpError(
                404, "unknown_database",
                f"tenant {key.tenant!r} has no database {key.db_id!r}",
            )
        skey = (key.db_id, key.semantics)
        session = state.sessions.get(skey)
        if session is None:
            session = DatabaseSession(
                db,
                default_semantics=key.semantics,
                engine=self.engine,
                certifier=self.certifier,
            )
            state.sessions[skey] = session
        return session

    # ------------------------------------------------------------------
    # Admission + batching (event-loop confined)
    # ------------------------------------------------------------------
    def make_item(
        self,
        tenant: str,
        payload: Dict[str, Any],
        budget: Optional[Budget] = None,
    ) -> QueryItem:
        """Validate one query payload into a :class:`QueryItem`.

        A payload may name a registered database (``"db"``) or carry the
        database text inline (``"database"``), which registers it under
        its content id first.
        """
        text = payload.get("database")
        if text is not None:
            db_id = self.register_database(
                tenant, str(text), payload.get("vocabulary")
            )["db"]
        else:
            db_id = payload.get("db")
        if not db_id:
            raise HttpError(
                400, "bad_request", "payload needs 'db' or 'database'"
            )
        task = payload.get("task", "infers")
        if task not in TASKS:
            raise HttpError(
                400, "bad_request",
                f"unknown task {task!r} (expected one of {TASKS})",
            )
        try:
            semantics = resolve_name(payload.get("semantics", "egcwa"))
        except ReproError as exc:
            raise HttpError(400, "bad_semantics", str(exc))
        query = payload.get("query")
        if task in ("infers", "infers_literal") and not query:
            raise HttpError(
                400, "bad_request", f"task {task!r} needs a 'query'"
            )
        mode = payload.get("mode", "cautious")
        if mode not in ("cautious", "brave"):
            raise HttpError(400, "bad_request", f"unknown mode {mode!r}")
        return QueryItem(
            tenant=tenant,
            db_id=str(db_id),
            semantics=semantics,
            task=task,
            query=query,
            mode=mode,
            budget=budget if budget is not None else self.default_budget,
        )

    async def submit(self, item: QueryItem) -> ItemResult:
        """Admit, batch, evaluate — the one entry point per query."""
        self.requests += 1
        self._m_requests.labels(task=item.task).inc()
        state = self.tenant(item.tenant)
        if state.pending >= self.max_queue:
            state.rejects += 1
            self.rejected += 1
            self._m_rejects.labels(tenant=item.tenant).inc()
            error = HttpError(
                429, "admission",
                f"tenant {item.tenant!r} has {state.pending} queries "
                f"queued or running (bound {self.max_queue})",
                retry_after=RETRY_AFTER_S,
            )
            self._m_responses.labels(status="429").inc()
            response = error.to_response()
            return ItemResult(429, response.payload, dict(response.headers))
        # Resolve the session *before* queueing so an unknown database is
        # a 404 now, not a batch-poisoning exception later.  The refusal
        # still counts as a rejection so requests == admitted + rejected.
        try:
            session = self._session_for(item.key)
        except HttpError as error:
            state.rejects += 1
            self.rejected += 1
            self._m_rejects.labels(tenant=item.tenant).inc()
            self._m_responses.labels(status=str(error.status)).inc()
            response = error.to_response()
            return ItemResult(
                error.status, response.payload, dict(response.headers)
            )
        self.admitted += 1
        state.pending += 1
        state.queries += 1
        self._m_queue_depth.inc()
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ItemResult]" = loop.create_future()
        batch = self._batches.get(item.key)
        if batch is None:
            batch = self._batches[item.key] = _Batch()
            batch.items.append((item, future))
            asyncio.ensure_future(self._drain_key(item.key, session))
        else:
            batch.items.append((item, future))
        try:
            result = await future
        finally:
            state.pending -= 1
            self._m_queue_depth.dec()
            self.completed += 1
        if result.status >= 400:
            state.errors += 1
        self._m_responses.labels(status=str(result.status)).inc()
        return result

    async def _drain_key(
        self, key: BatchKey, session: DatabaseSession
    ) -> None:
        """The per-key worker: repeatedly drain every pending item of
        ``key`` into one batch and evaluate it on the shared session.
        Exactly one drain loop exists per live key, so batches for one
        session never run concurrently."""
        loop = asyncio.get_running_loop()
        while True:
            batch = self._batches[key]
            items = batch.items
            if not items:
                # No arrivals while the last batch ran: retire the key.
                del self._batches[key]
                return
            batch.items = []
            self.batches += 1
            self.batched_items += len(items)
            self._m_batches.inc()
            self._m_batch_width.observe(float(len(items)))
            context = contextvars.copy_context()
            try:
                results = await loop.run_in_executor(
                    self._executor,
                    context.run,
                    self._run_batch,
                    key,
                    session,
                    [item for item, _ in items],
                )
            except Exception as exc:  # worker crashed outside item scope
                error = HttpError(
                    500, "internal", f"batch execution failed: {exc}"
                )
                results = [
                    ItemResult(500, error.to_response().payload)
                    for _ in items
                ]
            for (_, future), result in zip(items, results):
                if not future.done():
                    future.set_result(result)

    # ------------------------------------------------------------------
    # Batch evaluation (worker threads)
    # ------------------------------------------------------------------
    def _run_batch(
        self,
        key: BatchKey,
        session: DatabaseSession,
        items: List[QueryItem],
    ) -> List[ItemResult]:
        """Evaluate one batch on its shared session.

        Runs in a worker thread.  One solver-pool checkout window spans
        the whole batch (a retry inside it is a repeat checkout, not a
        fresh reuse), and the tenant's fault plan — when configured — is
        installed around the batch, exactly as a real outage would hit
        every query in flight.
        """
        plan = self.fault_plans.get(key.tenant)
        if self.batch_hook is not None:
            self.batch_hook(key, len(items))
        width = len(items)
        results = []
        with checkout_token():
            with _maybe(fault_plan(plan) if plan is not None else None):
                for item in items:
                    results.append(self._run_one(session, item, width))
        return results

    def _run_one(
        self, session: DatabaseSession, item: QueryItem, width: int
    ) -> ItemResult:
        """Evaluate one item inside one oracle-observation window: every
        response carries the window's NP count as ``sat_calls``, so the
        responses' counts sum to the process NP-call total."""
        start = time.perf_counter()
        with observe() as window:
            try:
                scope = (
                    budget_scope(item.budget)
                    if item.budget is not None and not item.budget.unbounded
                    else None
                )
                with _maybe(scope):
                    payload = self._evaluate(session, item)
                status, headers = 200, {}
            except HttpError as exc:
                response = exc.to_response()
                status, payload, headers = (
                    exc.status, response.payload, dict(response.headers)
                )
            except BudgetExceeded as exc:
                error = self._budget_error(exc)
                response = error.to_response()
                status, payload, headers = (
                    error.status, response.payload, dict(response.headers)
                )
            except FaultInjected as exc:
                error = HttpError(
                    503, "transient", f"transient fault: {exc}",
                    retry_after=RETRY_AFTER_S,
                )
                response = error.to_response()
                status, payload, headers = (
                    error.status, response.payload, dict(response.headers)
                )
            except ReproError as exc:
                error = HttpError(400, "bad_request", str(exc))
                status, payload, headers = (
                    400, error.to_response().payload, {}
                )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._m_latency.labels(tenant=item.tenant).observe(elapsed_ms)
        payload.setdefault("tenant", item.tenant)
        payload.setdefault("db", item.db_id)
        payload.setdefault("task", item.task)
        payload.setdefault("semantics", item.semantics)
        payload["sat_calls"] = window.np_calls
        payload["batch_width"] = width
        payload["elapsed_ms"] = round(elapsed_ms, 3)
        return ItemResult(status, payload, headers)

    def _budget_error(self, exc: BudgetExceeded) -> HttpError:
        usage = {
            "resource": exc.resource,
            "elapsed_ms": round(exc.usage.elapsed_ms, 3),
            "sat_calls": exc.usage.sat_calls,
            "nodes": exc.usage.nodes,
        }
        if exc.resource == "wall_ms":
            return HttpError(
                503, "timeout", str(exc),
                retry_after=RETRY_AFTER_S, detail={"usage": usage},
            )
        return HttpError(
            429, "budget", str(exc),
            retry_after=RETRY_AFTER_S, detail={"usage": usage},
        )

    def _evaluate(
        self, session: DatabaseSession, item: QueryItem
    ) -> Dict[str, Any]:
        if item.task == "has_model":
            return {"verdict": bool(session.has_model(item.semantics))}
        if item.task == "model_set":
            models = session.models(item.semantics)
            if len(models) > self.max_models:
                raise HttpError(
                    500, "too_many_models",
                    f"{len(models)} models exceed the service bound "
                    f"{self.max_models}",
                )
            return {
                "models": sorted(sorted(model) for model in models),
                "count": len(models),
            }
        if item.task == "infers_literal":
            answer = session.ask_literal(item.query, item.semantics)
        else:
            answer = session.ask(
                item.query, semantics=item.semantics, mode=item.mode
            )
        payload: Dict[str, Any] = {"verdict": bool(answer.verdict)}
        if answer.observation is not None:
            payload["np_calls"] = answer.observation.np_calls
            payload["sigma2_dispatches"] = (
                answer.observation.sigma2_dispatches
            )
        if answer.complexity is not None:
            payload["complexity_ok"] = answer.complexity.ok
            claim = answer.complexity.claim
            payload["complexity_class"] = getattr(
                getattr(claim, "upper", claim), "value", str(claim)
            )
        if answer.plan is not None:
            payload["plan"] = answer.plan.procedure
        if answer.certificate is not None:
            payload["counter_model"] = str(answer.certificate.model)
        return payload

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service totals, per-tenant breakdowns, and the cache / pool /
        runtime counters every query shares."""
        from ..engine.cache import cache_stats
        from ..runtime.budget import RUNTIME_STATS

        cache = cache_stats()
        return {
            "engine": self.engine,
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "in_flight": self.admitted - self.completed,
            "batches": self.batches,
            "batched_items": self.batched_items,
            "mean_batch_width": (
                round(self.batched_items / self.batches, 3)
                if self.batches
                else 0.0
            ),
            "tenants": {
                name: tenant.stats()
                for name, tenant in sorted(self._tenants.items())
            },
            "cache": {
                name: cache[name]
                for name in (
                    "entries", "maxsize", "hits", "misses", "evictions",
                    "hit_rate",
                )
            },
            "solver_pool": solver_pool_stats(),
            "runtime": RUNTIME_STATS.snapshot(),
        }

    def close(self) -> None:
        """Shut the evaluation pool down (idempotent)."""
        self._executor.shutdown(wait=True)
