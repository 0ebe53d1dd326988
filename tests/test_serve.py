"""Concurrency-hardened tests for the serving layer (:mod:`repro.serve`).

Four angles, mirroring the serve design:

* **protocol + endpoints** — request/response framing, routing, error
  mapping, the ``/metrics`` and ``/trace`` endpoints, the background
  daemon + sync client pair the CI smoke drives;
* **differential under concurrency** — N async clients hammer the
  daemon across the four seeded regimes under a strict certifier; every
  served answer must equal the single-threaded ``cached`` oracle, the
  service / cache / pool counters must be internally consistent
  afterwards (admitted == completed, hits + misses == lookups, no lost
  checkouts), and the per-response ``sat_calls`` must sum to the
  process NP-call total (conservation);
* **QoS + fault injection** — per-request budget headers map to
  structured 429/503 responses, seeded
  :class:`~repro.runtime.faults.FaultPlan`\\ s produce 503s without
  poisoning sessions, and one tenant's faults never corrupt another
  tenant's answers;
* **batching discipline** — same ``(tenant, db, semantics)`` coalesces
  (asserted via the batch-width metric *and* a scripted spy on the batch
  runner), different tenants or semantics never share a batch even for
  byte-identical database texts.

The 64-client soak (>= 500 queries, zero divergences, zero certifier
violations, exact NP-call conservation) runs in the slow lane.
"""

from __future__ import annotations

import asyncio
import threading
import uuid

import pytest

from repro.logic.parser import parse_database
from repro.obs.accounting import totals
from repro.obs.certify import Certifier
from repro.obs.metrics import METRICS
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan
from repro.serve import (
    AsyncServeClient,
    BackgroundServer,
    QueryService,
    ReproServer,
    ServeClient,
    canonical_db_id,
)
from repro.session import DatabaseSession
from repro.workloads import (
    random_deductive_db,
    random_normal_db,
    random_positive_db,
    random_query_formula,
    random_stratified_db,
)

# ----------------------------------------------------------------------
# Harness helpers
# ----------------------------------------------------------------------

#: The four seeded regimes of the differential harness (small sizes so
#: the concurrency sweeps stay quick).
REGIMES = ("positive", "deductive", "stratified", "normal")

#: Semantics exercised per regime (subset of the differential lists;
#: enough to cover coNP, Pi2p and stable-model rows).
SEMANTICS_FOR = {
    "positive": ["gcwa", "egcwa", "dsm"],
    "deductive": ["gcwa", "egcwa", "dsm"],
    "stratified": ["gcwa", "egcwa", "circ"],
    "normal": ["gcwa", "egcwa", "dsm"],
}


def build_db(regime: str, seed: int):
    if regime == "positive":
        return random_positive_db(4, 4, seed=seed)
    if regime == "deductive":
        return random_deductive_db(4, 5, seed=seed)
    if regime == "stratified":
        return random_stratified_db(4, 5, seed=seed)
    if regime == "normal":
        return random_normal_db(4, 5, ic_fraction=0.15, seed=seed)
    raise ValueError(regime)


def unique_db_text(template: str = "{a} | {b}. {c} :- {a}.") -> str:
    """A database text whose atoms are globally unique, so the
    process-wide answer cache cannot satisfy this test's queries from a
    previous test's work (budget-trip tests need real SAT calls)."""
    tag = uuid.uuid4().hex[:8]
    return template.format(a=f"a{tag}", b=f"b{tag}", c=f"c{tag}")


def expected_answers(db, semantics: str, queries):
    """Ground truth from a single-threaded cached-engine session."""
    session = DatabaseSession(db, engine="cached")
    expected = {}
    for task, query in queries:
        if task == "has_model":
            expected[(task, query)] = session.has_model(semantics)
        elif task == "model_set":
            expected[(task, query)] = sorted(
                sorted(model) for model in session.models(semantics)
            )
        elif task == "infers_literal":
            expected[(task, query)] = session.ask_literal(
                query, semantics
            ).verdict
        else:
            expected[(task, query)] = session.ask(
                query, semantics=semantics
            ).verdict
    return expected


def query_mix(db, seed: int):
    """The per-database task mix the concurrency sweeps issue."""
    atoms = sorted(db.vocabulary)
    formula = random_query_formula(atoms, depth=2, seed=seed)
    atom = atoms[0]
    return [
        ("infers", str(formula)),
        ("infers_literal", atom),
        ("infers_literal", f"~{atom}"),
        ("has_model", None),
        ("model_set", None),
    ]


# ----------------------------------------------------------------------
# Protocol + endpoints
# ----------------------------------------------------------------------

def test_roundtrip_endpoints():
    async def main():
        service = QueryService(engine="cached", workers=2)
        async with ReproServer(service, tracing=True) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port, tenant="t1"
            ) as client:
                health = await client.healthz()
                assert health.status == 200
                assert health.payload == {"status": "ok"}

                registered = await client.register("a | b. c :- a. c :- b.")
                assert registered.status == 200
                db_id = registered.payload["db"]
                assert registered.payload["atoms"] == 3

                # Registration is idempotent and content-addressed.
                again = await client.register("a | b. c :- a. c :- b.")
                assert again.payload["db"] == db_id

                listed = await client.request("GET", "/v1/databases")
                assert [d["db"] for d in listed.payload["databases"]] == [
                    db_id
                ]

                answer = await client.query(
                    db_id, task="infers", semantics="egcwa", query="c"
                )
                assert answer.status == 200
                assert answer.payload["verdict"] is True
                assert answer.payload["tenant"] == "t1"
                assert answer.payload["batch_width"] >= 1
                assert answer.payload["complexity_ok"] is True

                neg = await client.query(
                    db_id, task="infers", semantics="egcwa", query="a"
                )
                assert neg.payload["verdict"] is False
                assert "counter_model" in neg.payload

                models = await client.query(
                    db_id, task="model_set", semantics="gcwa"
                )
                assert models.payload["models"] == [
                    ["a", "b", "c"], ["a", "c"], ["b", "c"],
                ]

                stats = await client.stats()
                assert stats.payload["requests"] == stats.payload["admitted"]
                assert stats.payload["tenants"]["t1"]["queries"] == 3

                metrics = await client.metrics()
                assert metrics.status == 200
                assert "repro_serve_requests_total" in metrics.payload
                assert "repro_serve_queue_depth" in metrics.payload

                trace = await client.request("GET", "/trace")
                assert trace.status == 200
                assert trace.payload.strip()  # spans drained as JSONL
                drained = await client.request("GET", "/trace")
                assert drained.payload.strip() == ""

    asyncio.run(main())


def test_error_mapping():
    async def main():
        service = QueryService(engine="cached", workers=1)
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                missing = await client.request("GET", "/nope")
                assert missing.status == 404
                assert missing.payload["error"] == "not_found"

                bad_method = await client.request("PUT", "/v1/databases")
                assert bad_method.status == 405

                bad_json = await client.request(
                    "POST", "/v1/databases", {"nothing": 1}
                )
                assert bad_json.status == 400

                bad_db = await client.request(
                    "POST", "/v1/databases", {"text": "a |||"}
                )
                assert bad_db.status == 400
                assert bad_db.payload["error"] == "bad_database"

                unknown_db = await client.query(
                    "feedfeedfeedfeed", task="has_model"
                )
                assert unknown_db.status == 404
                assert unknown_db.payload["error"] == "unknown_database"

                registered = await client.register("a | b.")
                db_id = registered.payload["db"]
                bad_task = await client.query(db_id, task="enumerate")
                assert bad_task.status == 400
                bad_semantics = await client.query(
                    db_id, task="has_model", semantics="nonsense"
                )
                assert bad_semantics.status == 400
                no_query = await client.query(db_id, task="infers")
                assert no_query.status == 400
                bad_budget = await client.request(
                    "POST", "/v1/query",
                    {"db": db_id, "task": "has_model"},
                    headers={"X-Budget-Wall-Ms": "soon"},
                )
                assert bad_budget.status == 400
                assert bad_budget.payload["error"] == "bad_budget"

                # Counter discipline: an unknown-database refusal is a
                # rejection, so the stats invariant holds even with 404s
                # in the mix (requests == admitted + rejected).
                stats = (await client.request("GET", "/v1/stats")).payload
                assert stats["rejected"] >= 1
                assert (
                    stats["requests"]
                    == stats["admitted"] + stats["rejected"]
                )
                assert stats["admitted"] == stats["completed"]

    asyncio.run(main())


def test_inline_database_and_tenant_namespaces():
    """Inline texts register under their content id; equal texts from
    different tenants live in separate namespaces (and sessions)."""

    async def main():
        service = QueryService(engine="cached", workers=2)
        text = "p | q. r :- p. r :- q."
        db_id = canonical_db_id(parse_database(text))
        async with ReproServer(service) as server:
            a = AsyncServeClient("127.0.0.1", server.port, tenant="alpha")
            b = AsyncServeClient("127.0.0.1", server.port, tenant="beta")
            async with a, b:
                first = await a.request(
                    "POST", "/v1/query",
                    {"database": text, "task": "infers", "query": "r",
                     "semantics": "egcwa"},
                )
                assert first.status == 200
                assert first.payload["db"] == db_id
                # beta has not registered anything: the id is unknown
                # in *its* namespace.
                other = await b.query(db_id, task="has_model")
                assert other.status == 404
                # After beta registers the same text it gets the same
                # content id but its own session/tenant counters.
                registered = await b.register(text)
                assert registered.payload["db"] == db_id
                second = await b.query(
                    db_id, task="infers", semantics="egcwa", query="r"
                )
                assert second.status == 200
        stats = service.stats()
        assert stats["tenants"]["alpha"]["sessions"] == 1
        assert stats["tenants"]["beta"]["sessions"] == 1

    asyncio.run(main())


def test_background_server_and_sync_client():
    """The daemon-on-a-thread + stdlib-http.client pair (the CI smoke
    path): start, register, query, scrape /metrics, clean shutdown."""
    service = QueryService(engine="cached", workers=2)
    with BackgroundServer(service) as handle:
        with ServeClient("127.0.0.1", handle.port, tenant="ops") as client:
            assert client.healthz().payload == {"status": "ok"}
            db_id = client.register("a | b. c :- a. c :- b.").payload["db"]
            answer = client.query(
                db=db_id, task="infers", semantics="egcwa", query="c"
            )
            assert answer.status == 200 and answer.payload["verdict"]
            scrape = client.metrics()
            assert "repro_serve_responses_total" in scrape.payload
            stats = client.stats()
            assert stats.payload["tenants"]["ops"]["queries"] == 1
    # Clean shutdown: the worker pool is drained and closed.
    assert service._executor._shutdown


# ----------------------------------------------------------------------
# QoS budgets
# ----------------------------------------------------------------------

def test_budget_headers_map_to_structured_errors():
    async def main():
        service = QueryService(engine="cached", workers=1)
        text = unique_db_text()
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                db_id = (await client.register(text)).payload["db"]
                atom = sorted(parse_database(text).vocabulary)[0]

                # SAT-call ceiling -> 429 "budget" with usage detail.
                capped = await client.query(
                    db_id, task="infers", semantics="egcwa",
                    query=f"~{atom}", budget=Budget(max_sat_calls=0),
                )
                assert capped.status == 429
                assert capped.payload["error"] == "budget"
                assert capped.payload["usage"]["resource"] == "sat_calls"
                assert "retry-after" in capped.headers

                # Wall-clock ceiling -> 503 "timeout" with Retry-After.
                timed = await client.query(
                    db_id, task="infers", semantics="egcwa",
                    query=f"~{atom}", budget=Budget(wall_ms=0.0),
                )
                assert timed.status == 503
                assert timed.payload["error"] == "timeout"
                assert "retry-after" in timed.headers

                # The tripped budget did not poison the session: the
                # same query, unbudgeted, answers and matches oracle.
                ok = await client.query(
                    db_id, task="infers", semantics="egcwa",
                    query=f"~{atom}",
                )
                assert ok.status == 200
                oracle = DatabaseSession(
                    parse_database(text), engine="cached"
                )
                assert ok.payload["verdict"] == oracle.ask(
                    f"~{atom}", semantics="egcwa"
                ).verdict

    asyncio.run(main())


def test_service_default_budget_applies_without_headers():
    async def main():
        service = QueryService(
            engine="cached", workers=1,
            default_budget=Budget(max_sat_calls=0),
        )
        text = unique_db_text()
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                db_id = (await client.register(text)).payload["db"]
                atom = sorted(parse_database(text).vocabulary)[0]
                capped = await client.query(
                    db_id, task="infers", semantics="egcwa",
                    query=f"~{atom}",
                )
                assert capped.status == 429
                assert capped.payload["error"] == "budget"

    asyncio.run(main())


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

def test_admission_bound_rejects_with_429():
    """With max_queue=1 and the only worker blocked, a second query from
    the same tenant is refused at admission; another tenant's queue is
    unaffected."""
    gate = threading.Event()

    def hook(key, width):
        gate.wait(30)

    async def main():
        service = QueryService(
            engine="cached", workers=1, max_queue=1, batch_hook=hook
        )
        text = "a | b. c :- a."
        async with ReproServer(service) as server:
            blocked = AsyncServeClient(
                "127.0.0.1", server.port, tenant="busy"
            )
            second = AsyncServeClient(
                "127.0.0.1", server.port, tenant="busy"
            )
            other = AsyncServeClient(
                "127.0.0.1", server.port, tenant="calm"
            )
            async with blocked, second, other:
                db_id = (await blocked.register(text)).payload["db"]
                await other.register(text)
                first = asyncio.ensure_future(
                    blocked.query(db_id, task="has_model")
                )
                # Wait until the first query is admitted and running.
                for _ in range(200):
                    if service.tenant("busy").pending == 1:
                        break
                    await asyncio.sleep(0.01)
                assert service.tenant("busy").pending == 1

                reject = await second.query(db_id, task="has_model")
                assert reject.status == 429
                assert reject.payload["error"] == "admission"
                assert "retry-after" in reject.headers

                gate.set()
                done = await first
                assert done.status == 200

                # The other tenant was never near its bound.
                calm = await other.query(db_id, task="has_model")
                assert calm.status == 200
        stats = service.stats()
        assert stats["rejected"] == 1
        assert stats["tenants"]["busy"]["rejects"] == 1
        assert stats["tenants"]["calm"]["rejects"] == 0
        assert stats["admitted"] == stats["completed"]

    asyncio.run(main())


# ----------------------------------------------------------------------
# Fault injection through the server path
# ----------------------------------------------------------------------

def test_fault_injection_transient_503_without_poisoning():
    """A seeded fault plan makes the first SAT-bearing queries fail with
    a structured 503; once the plan's fault cap is consumed the same
    session answers correctly — no poisoned cache, no broken session."""

    async def main():
        plan = FaultPlan(seed=7, sat_fault_rate=1.0, max_sat_faults=2)
        service = QueryService(
            engine="cached", workers=1, fault_plans={"default": plan}
        )
        text = unique_db_text()
        db = parse_database(text)
        atom = sorted(db.vocabulary)[0]
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                db_id = (await client.register(text)).payload["db"]
                failures = 0
                verdicts = []
                for _ in range(4):
                    response = await client.query(
                        db_id, task="infers", semantics="egcwa",
                        query=f"~{atom}",
                    )
                    if response.status == 503:
                        assert response.payload["error"] == "transient"
                        assert "retry-after" in response.headers
                        failures += 1
                    else:
                        assert response.status == 200
                        verdicts.append(response.payload["verdict"])
        assert failures >= 1  # the plan did bite
        assert plan.sat_faults == 2  # and was capped as seeded
        assert verdicts  # recovered answers exist...
        oracle = DatabaseSession(db, engine="oracle")
        expected = oracle.ask(f"~{atom}", semantics="egcwa").verdict
        assert all(v == expected for v in verdicts)  # ...and are exact

    asyncio.run(main())


def test_resilient_engine_degrades_instead_of_failing():
    """engine="resilient": an uncapped 100% SAT fault rate exhausts the
    retries and the brute fallback (no SAT surface) still answers 200."""

    async def main():
        plan = FaultPlan(seed=3, sat_fault_rate=1.0)
        service = QueryService(
            engine="resilient", workers=1,
            fault_plans={"default": plan},
        )
        text = unique_db_text()
        db = parse_database(text)
        atom = sorted(db.vocabulary)[0]
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                db_id = (await client.register(text)).payload["db"]
                response = await client.query(
                    db_id, task="infers", semantics="egcwa",
                    query=f"~{atom}",
                )
                assert response.status == 200
        assert plan.sat_faults > 0
        oracle = DatabaseSession(db, engine="brute")
        assert response.payload["verdict"] == oracle.ask(
            f"~{atom}", semantics="egcwa"
        ).verdict

    asyncio.run(main())


def test_tenant_fault_isolation():
    """Tenant A runs under a hostile fault plan; tenant B (same database
    text!) must see exact answers throughout — a tenant's failures never
    corrupt another tenant's results."""

    async def main():
        plan = FaultPlan(seed=11, sat_fault_rate=1.0)
        service = QueryService(
            engine="cached", workers=2, fault_plans={"hostile": plan}
        )
        text = unique_db_text()
        db = parse_database(text)
        atom = sorted(db.vocabulary)[0]
        oracle = DatabaseSession(db, engine="oracle")
        expected = oracle.ask(f"~{atom}", semantics="egcwa").verdict
        async with ReproServer(service) as server:
            hostile = AsyncServeClient(
                "127.0.0.1", server.port, tenant="hostile"
            )
            calm = AsyncServeClient(
                "127.0.0.1", server.port, tenant="calm"
            )
            async with hostile, calm:
                db_id = (await hostile.register(text)).payload["db"]
                await calm.register(text)
                saw_fault = False
                for _ in range(3):
                    bad = await hostile.query(
                        db_id, task="infers", semantics="egcwa",
                        query=f"~{atom}",
                    )
                    saw_fault = saw_fault or bad.status == 503
                    good = await calm.query(
                        db_id, task="infers", semantics="egcwa",
                        query=f"~{atom}",
                    )
                    assert good.status == 200
                    assert good.payload["verdict"] == expected
        assert saw_fault
        stats = service.stats()
        assert stats["tenants"]["calm"]["errors"] == 0
        assert stats["tenants"]["calm"]["certificate_violations"] == 0

    asyncio.run(main())


# ----------------------------------------------------------------------
# Batching discipline
# ----------------------------------------------------------------------

def test_same_key_coalesces_into_one_batch():
    """While the first batch blocks in the worker, three more queries
    for the same (tenant, db, semantics) arrive; they must run as ONE
    batch of width 3 — observed by the scripted spy and the batch-width
    metric."""
    release = threading.Event()
    widths = []

    def hook(key, width):
        widths.append((key, width))
        if not release.is_set():
            release.wait(30)

    async def main():
        service = QueryService(engine="cached", workers=2, batch_hook=hook)
        text = "a | b. c :- a. c :- b."
        metric = METRICS.get("repro_serve_batch_width")
        count_before = metric.count
        sum_before = metric.sum
        async with ReproServer(service) as server:
            async with AsyncServeClient(
                "127.0.0.1", server.port
            ) as client:
                db_id = (await client.register(text)).payload["db"]
                others = [
                    AsyncServeClient("127.0.0.1", server.port)
                    for _ in range(3)
                ]
                for other in others:
                    await other.connect()
                try:
                    leader = asyncio.ensure_future(
                        client.query(
                            db_id, task="infers", semantics="egcwa",
                            query="c",
                        )
                    )
                    # Wait for the leader's batch to be in the worker.
                    for _ in range(300):
                        if widths:
                            break
                        await asyncio.sleep(0.01)
                    assert widths and widths[0][1] == 1
                    followers = [
                        asyncio.ensure_future(
                            other.query(
                                db_id, task="infers",
                                semantics="egcwa", query="c",
                            )
                        )
                        for other in others
                    ]
                    # Wait until all three are queued on the key.
                    for _ in range(300):
                        if service.tenant("default").pending == 4:
                            break
                        await asyncio.sleep(0.01)
                    release.set()
                    responses = [await leader] + [
                        await follower for follower in followers
                    ]
                finally:
                    for other in others:
                        await other.close()
        assert all(r.status == 200 for r in responses)
        assert all(r.payload["verdict"] is True for r in responses)
        recorded = [width for _, width in widths]
        assert recorded == [1, 3]  # leader alone, then the coalesced 3
        assert responses[1].payload["batch_width"] == 3
        assert service.batches == 2
        assert service.batched_items == 4
        metric_after = METRICS.get("repro_serve_batch_width")
        assert metric_after.count - count_before == 2
        assert metric_after.sum - sum_before == 4.0

    asyncio.run(main())


def test_batch_key_discipline_across_tenants_and_semantics():
    """Byte-identical database texts under two tenants and two semantics
    = four distinct batch keys; no executed batch may ever mix them."""
    recorded = []
    original = QueryService._run_batch

    def spying_run_batch(self, key, session, items):
        recorded.append(
            (key, [(i.tenant, i.db_id, i.semantics) for i in items])
        )
        return original(self, key, session, items)

    async def main():
        service = QueryService(engine="cached", workers=4)
        service._run_batch = spying_run_batch.__get__(service)
        text = "p | q. r :- p. r :- q."
        async with ReproServer(service) as server:
            # One connection per in-flight request, so all 12 queries
            # genuinely overlap on the server side.
            clients = [
                AsyncServeClient("127.0.0.1", server.port, tenant=tenant)
                for tenant in ("one", "two")
                for _semantics in ("gcwa", "egcwa")
                for _copy in range(3)
            ]
            for client in clients:
                await client.connect()
            try:
                for tenant in ("one", "two"):
                    register = AsyncServeClient(
                        "127.0.0.1", server.port, tenant=tenant
                    )
                    async with register:
                        await register.register(text)
                db_id = canonical_db_id(parse_database(text))
                jobs = []
                index = 0
                for tenant in ("one", "two"):
                    for semantics in ("gcwa", "egcwa"):
                        for _ in range(3):
                            jobs.append(
                                clients[index].query(
                                    db_id, task="infers",
                                    semantics=semantics, query="r",
                                )
                            )
                            index += 1
                responses = await asyncio.gather(*jobs)
            finally:
                for client in clients:
                    await client.close()
        assert all(r.status == 200 for r in responses)
        assert sum(len(items) for _, items in recorded) == 12
        seen_keys = set()
        for key, items in recorded:
            seen_keys.add((key.tenant, key.semantics))
            for tenant, db, semantics in items:
                # Every item matches its batch's key exactly: batches
                # never span tenants or semantics.
                assert tenant == key.tenant
                assert db == key.db_id
                assert semantics == key.semantics
        assert seen_keys == {
            ("one", "gcwa"), ("one", "egcwa"),
            ("two", "gcwa"), ("two", "egcwa"),
        }

    asyncio.run(main())


# ----------------------------------------------------------------------
# Concurrency differential vs the cached oracle
# ----------------------------------------------------------------------

def _run_differential(clients: int, seeds_per_regime: int):
    """N concurrent clients sweep the regimes under a strict certifier;
    every answer must match the single-threaded cached oracle, the
    counters must reconcile, and the responses' NP calls must add up to
    the process total exactly."""
    cases = []  # (tenant, text, vocab, db_id, semantics, task, query, want)
    for regime in REGIMES:
        for seed in range(seeds_per_regime):
            db = build_db(regime, seed)
            text = str(db)
            vocab = sorted(db.vocabulary)
            db_id = canonical_db_id(db)
            queries = query_mix(db, seed=seed)
            for semantics in SEMANTICS_FOR[regime]:
                expected = expected_answers(db, semantics, queries)
                for task, query in queries:
                    cases.append((
                        f"tenant-{seed % 3}", text, vocab, db_id,
                        semantics, task, query, expected[(task, query)],
                    ))

    divergences = []
    sat_calls = []

    async def worker(server_port, worker_index, assigned):
        client = AsyncServeClient(
            "127.0.0.1", server_port,
            tenant=assigned[0][0] if assigned else "default",
        )
        await client.connect()
        try:
            registered = set()
            for (tenant, text, vocab, db_id, semantics, task, query,
                 expected) in assigned:
                client.tenant = tenant
                if (tenant, db_id) not in registered:
                    response = await client.register(text, vocabulary=vocab)
                    assert response.status == 200
                    assert response.payload["db"] == db_id
                    registered.add((tenant, db_id))
                response = await client.query(
                    db_id, task=task, semantics=semantics, query=query
                )
                if response.status != 200:
                    divergences.append(
                        (tenant, semantics, task, query, response.payload)
                    )
                    continue
                payload = response.payload
                sat_calls.append(payload["sat_calls"])
                if "np_calls" in payload:
                    # The certified count leaves the counter-model
                    # search out; the response's window includes it.
                    assert payload["np_calls"] <= payload["sat_calls"]
                got = (
                    response.payload["models"]
                    if task == "model_set"
                    else response.payload["verdict"]
                )
                if got != expected:
                    divergences.append(
                        (tenant, semantics, task, query, got, expected)
                    )
        finally:
            await client.close()

    async def main():
        service = QueryService(
            engine="cached", workers=4, max_queue=512,
            certifier=Certifier(strict=True),
        )
        async with ReproServer(service) as server:
            tasks = [
                worker(server.port, index, cases[index::clients])
                for index in range(clients)
            ]
            await asyncio.gather(*tasks)
        return service

    np_before = totals().np_calls
    service = asyncio.run(main())
    np_spent = totals().np_calls - np_before
    assert divergences == [], divergences[:5]
    # Conservation: each NP call is charged to exactly one response.
    assert len(sat_calls) == len(cases)
    assert sum(sat_calls) == np_spent

    # Post-run counter consistency: nothing lost, nothing double-counted.
    stats = service.stats()
    assert stats["requests"] == stats["admitted"] + stats["rejected"]
    assert stats["admitted"] == stats["completed"]
    assert stats["in_flight"] == 0
    # Every admitted item ran in exactly one batch: nothing lost on the
    # queue, nothing evaluated twice.
    assert stats["batched_items"] == stats["admitted"]
    assert stats["admitted"] == sum(
        tenant["queries"] for tenant in stats["tenants"].values()
    )
    cache = stats["cache"]
    assert cache["hits"] + cache["misses"] >= cache["entries"]
    assert 0.0 <= cache["hit_rate"] <= 1.0
    pool = stats["solver_pool"]
    checkouts = pool["solvers_created"] + pool["solver_reuses"]
    assert pool["solvers_pooled"] <= pool["pool_maxsize"]
    assert checkouts >= pool["solvers_pooled"]  # parked ⊆ ever checked out
    violations = sum(
        tenant["certificate_violations"]
        for tenant in stats["tenants"].values()
    )
    assert violations == 0
    return stats


def test_concurrent_clients_match_cached_oracle():
    _run_differential(clients=8, seeds_per_regime=2)


@pytest.mark.slow
def test_soak_64_clients_differential():
    """The acceptance soak: 64 concurrent clients, >= 500 served
    queries, zero divergences from the cached oracle, zero certifier
    violations, consistent counters afterwards."""
    stats = _run_differential(clients=64, seeds_per_regime=9)
    assert stats["admitted"] >= 500
