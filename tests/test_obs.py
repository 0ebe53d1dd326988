"""The observability layer: tracing, metrics, accounting, pool tokens.

Covers the tentpole's cross-cutting guarantees:

* span nesting — session → semantics → engine wrappers;
* the metrics registry — registration semantics, label families, the
  Prometheus-style text exposition, pull collectors;
* the no-op hot path — **proved allocation-free with construction
  counters**, not timings: with tracing disabled, an instrumented query
  constructs zero ``Span``/``NoopSpan`` objects;
* oracle accounting — observation windows, dispatch depth, the
  decorator contract;
* the checkout-token fix — a resilient retry re-acquiring the solver it
  just released counts as a repeat checkout, not a fresh pool reuse.
"""

from __future__ import annotations

import json

import pytest

from repro.logic.parser import parse_database, parse_formula
from repro.obs.accounting import (
    current_dispatch_depth,
    note_nodes,
    note_np_call,
    observe,
    sigma2_dispatch,
    totals,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NoopSpan,
    NoopTracer,
    Span,
    Tracer,
    active_tracer,
    use_tracer,
)
from repro.semantics import get_semantics
from repro.session import DatabaseSession

DB_TEXT = "a | b. c :- a. d."


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------
def test_session_spans_nest_query_over_semantics():
    db = parse_database(DB_TEXT)
    tracer = Tracer()
    with use_tracer(tracer):
        DatabaseSession(db).ask("~a | ~b")
    roots = tracer.finished_roots()
    assert [r.name for r in roots] == ["query.ask"]
    (root,) = roots
    assert root.attributes["semantics"] == "egcwa"
    assert [c.name for c in root.children] == ["semantics.infers"]
    child = root.children[0]
    assert child.attributes["sat_calls"] >= 1
    assert child.attributes["max_sigma2_depth"] <= 1


def test_engine_wrapper_spans_nest_inside_entry_point():
    """A cached-engine query shows wrapper → inner engine nesting."""
    db = parse_database(DB_TEXT)
    tracer = Tracer()
    with use_tracer(tracer):
        get_semantics("egcwa", engine="cached").has_model(db)
    (root,) = tracer.finished_roots()
    assert root.name == "semantics.has_model"
    assert root.attributes["engine"] == "cached"
    inner = [c for c in root.children if c.name == "semantics.has_model"]
    assert inner and inner[0].attributes["engine"] == "oracle"


def test_span_records_error_event_and_reraises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with use_tracer(tracer):
            with tracer.span("failing"):
                raise ValueError("boom")
    (root,) = tracer.finished_roots()
    assert [e["name"] for e in root.events] == ["error"]
    assert root.events[0]["type"] == "ValueError"


def test_export_jsonl_round_trips():
    tracer = Tracer()
    with tracer.span("outer", k=1):
        with tracer.span("inner"):
            pass
    payload = tracer.export_jsonl()
    assert payload.endswith("\n")
    (line,) = payload.splitlines()
    decoded = json.loads(line)
    assert decoded["name"] == "outer"
    assert decoded["attributes"] == {"k": 1}
    assert [c["name"] for c in decoded["children"]] == ["inner"]


def test_use_tracer_restores_previous():
    baseline = active_tracer()
    tracer = Tracer()
    with use_tracer(tracer):
        assert active_tracer() is tracer
    assert active_tracer() is baseline


# ----------------------------------------------------------------------
# The no-op hot path allocates no spans (counter-proved, not timed)
# ----------------------------------------------------------------------
def test_disabled_tracer_constructs_zero_spans():
    db = parse_database(DB_TEXT)
    session = DatabaseSession(db)
    session.ask("d")  # warm caches outside the measured window
    assert active_tracer().is_noop
    spans_before = Span.created
    noops_before = NoopSpan.instances
    for _ in range(5):
        session.ask("d")
        session.ask_literal("~c")
        session.has_model()
    assert Span.created == spans_before
    assert NoopSpan.instances == noops_before


def test_noop_tracer_span_is_a_singleton():
    tracer = NoopTracer()
    first = tracer.span("anything", k=1)
    second = tracer.span("else")
    assert first is second
    with first as span:
        span.set_attribute("k", 2)
        span.add_event("ignored")
    assert tracer.export_jsonl() == ""
    assert tracer.render_tree() == ""


# ----------------------------------------------------------------------
# Metrics registry and exposition
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_exposition_format():
    registry = MetricsRegistry()
    calls = registry.counter("test_calls_total", "Calls")
    calls.inc()
    calls.inc(2)
    depth = registry.gauge("test_depth", "Depth")
    depth.set(3)
    depth.dec()
    hist = registry.histogram(
        "test_latency_ms", "Latency", buckets=(1.0, 10.0)
    )
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(50.0)
    text = registry.expose()
    lines = text.splitlines()
    assert "# HELP test_calls_total Calls" in lines
    assert "# TYPE test_calls_total counter" in lines
    assert "test_calls_total 3" in lines
    assert "test_depth 2" in lines
    assert 'test_latency_ms_bucket{le="1"} 1' in lines
    assert 'test_latency_ms_bucket{le="10"} 2' in lines
    assert 'test_latency_ms_bucket{le="+Inf"} 3' in lines
    assert "test_latency_ms_count 3" in lines


def test_labeled_family_exposition():
    registry = MetricsRegistry()
    family = registry.counter(
        "test_by_kind_total", "By kind", labelnames=("kind",)
    )
    family.labels(kind="x").inc()
    family.labels(kind="x").inc()
    family.labels(kind="y").inc()
    assert family.labels(kind="x") is family.labels(kind="x")
    lines = registry.expose().splitlines()
    assert 'test_by_kind_total{kind="x"} 2' in lines
    assert 'test_by_kind_total{kind="y"} 1' in lines


def test_reregistration_is_idempotent_but_kind_mismatch_raises():
    registry = MetricsRegistry()
    first = registry.counter("test_thing_total", "Thing")
    assert registry.counter("test_thing_total", "Thing") is first
    with pytest.raises(ValueError):
        registry.gauge("test_thing_total", "Thing")


def test_pull_collectors_feed_exposition():
    registry = MetricsRegistry()
    registry.register_collector("pool", lambda: {"test_pool_size": 7.0})
    assert "test_pool_size 7" in registry.expose().splitlines()
    assert registry.snapshot()["test_pool_size"] == 7.0
    registry.register_collector("broken", lambda: 1 / 0)
    registry.expose()  # collector failures are swallowed


def test_process_metrics_cover_the_instrumented_subsystems():
    from repro.obs.metrics import METRICS

    db = parse_database(DB_TEXT)
    get_semantics("egcwa", engine="cached").model_set(db)
    snapshot = METRICS.snapshot()
    for name in (
        "repro_semantics_calls_total",
        "repro_oracle_np_calls_total",
        "repro_cache_hits",
        "repro_pool_solvers_created",
        "repro_runtime_retries_total",
    ):
        assert any(key.startswith(name) for key in snapshot), name


# ----------------------------------------------------------------------
# Oracle accounting
# ----------------------------------------------------------------------
def test_observation_windows_nest_and_delta():
    with observe() as outer:
        note_np_call()
        with observe() as inner:
            note_np_call()
            note_nodes(3)
            with sigma2_dispatch():
                assert current_dispatch_depth() == 1
        assert current_dispatch_depth() == 0
    assert inner.np_calls == 1
    assert inner.nodes == 3
    assert inner.sigma2_dispatches == 1
    assert inner.max_sigma2_depth == 1
    assert outer.np_calls == 2
    assert outer.sigma2_dispatches == 1


def test_observe_fills_window_on_exception():
    with pytest.raises(RuntimeError):
        with observe() as window:
            note_np_call()
            raise RuntimeError
    assert window.np_calls == 1


def test_totals_are_monotone():
    before = totals().np_calls
    note_np_call()
    assert totals().np_calls == before + 1


def test_minimal_model_primitive_counts_as_dispatch():
    from repro.sat.minimal import MinimalModelSolver

    db = parse_database("a | b.")
    with observe() as window:
        MinimalModelSolver(db).find_minimal_satisfying(parse_formula("a"))
    assert window.sigma2_dispatches >= 1
    assert window.max_sigma2_depth == 1


def test_budget_sat_tick_counts_np_call_before_raising():
    from repro.errors import BudgetExceededError
    from repro.runtime import Budget, observe_sat_call
    from repro.runtime.budget import budget_scope

    with observe() as window:
        with pytest.raises(BudgetExceededError):
            with budget_scope(Budget(max_sat_calls=1)):
                observe_sat_call()
                observe_sat_call()  # trips the budget
    assert window.np_calls == 2


# ----------------------------------------------------------------------
# The checkout-token pool-reuse fix (session.stats double count)
# ----------------------------------------------------------------------
def test_repeat_checkout_in_token_window_is_not_a_reuse():
    from repro.sat.incremental import (
        IncrementalSatSolver,
        SolverPool,
        checkout_token,
    )

    db = parse_database(DB_TEXT)
    pool = SolverPool(maxsize=4)
    build = lambda: IncrementalSatSolver(db)
    with checkout_token():
        solver = pool.acquire("k", build)
        pool.release("k", solver)
        again = pool.acquire("k", build)  # the retry re-checkout
        pool.release("k", again)
    assert again is solver
    assert pool.reused == 0
    assert pool.repeat_checkouts == 1
    # A second window is a fresh query: the same solver now counts.
    with checkout_token():
        third = pool.acquire("k", build)
        pool.release("k", third)
    assert third is solver
    assert pool.reused == 1
    assert pool.stats()["solver_repeat_checkouts"] == 1


def test_checkouts_without_window_count_as_reuse():
    from repro.sat.incremental import IncrementalSatSolver, SolverPool

    db = parse_database(DB_TEXT)
    pool = SolverPool(maxsize=4)
    build = lambda: IncrementalSatSolver(db)
    solver = pool.acquire("k", build)
    pool.release("k", solver)
    assert pool.acquire("k", build) is solver
    assert pool.reused == 1
    assert pool.repeat_checkouts == 0


def test_resilient_retry_does_not_double_count_pool_reuse():
    """The regression: a resilient retry checking out the solver the
    failed attempt released must not inflate ``solver_reuses`` in
    ``session.stats()``."""
    from repro.engine.resilient import ResilientSemantics, RetryPolicy
    from repro.runtime.faults import FaultPlan, fault_plan
    from repro.sat.incremental import SOLVER_POOL

    db = parse_database("a | b. c :- a. e | f. g :- e.")
    query = parse_formula("~a | ~b")
    inner = get_semantics("egcwa", engine="oracle")
    resilient = ResilientSemantics(
        inner,
        retry=RetryPolicy(max_retries=3, backoff_ms=0.0),
    )
    inner.infers(db, query)  # park a warm solver for this context
    before = SOLVER_POOL.stats()
    plan = FaultPlan(seed=1, sat_fault_rate=1.0, max_sat_faults=1)
    with fault_plan(plan):
        outcome = resilient.run("infers", db, query)
    assert outcome.ok and outcome.attempts == 2
    delta_reuse = SOLVER_POOL.stats()["solver_reuses"] - before["solver_reuses"]
    repeat = (
        SOLVER_POOL.stats()["solver_repeat_checkouts"]
        - before["solver_repeat_checkouts"]
    )
    # One query = at most one warm-solver reuse per solver context, no
    # matter how many retry attempts checked the solver out again.
    assert delta_reuse <= 1
    assert repeat >= 1


# ----------------------------------------------------------------------
# Instrument edge cases: validation, resets, reprs
# ----------------------------------------------------------------------
def test_metric_names_are_validated():
    registry = MetricsRegistry()
    for bad in ("", "9leading_digit", "has-dash", "white space"):
        with pytest.raises(ValueError):
            registry.counter(bad, "bad name")


def test_gauge_set_reset_and_repr():
    registry = MetricsRegistry()
    gauge = registry.gauge("g_depth", "a depth")
    gauge.set(7)
    assert gauge.value == 7
    gauge.reset()
    assert gauge.value == 0
    assert "g_depth" in repr(gauge)


def test_histogram_requires_buckets_and_tracks_count_sum():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("h_empty", "no buckets", buckets=())
    hist = registry.histogram("h_ms", "latency", buckets=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(20.0)
    assert hist.count == 2
    assert hist.sum == pytest.approx(20.5)
    assert "h_ms" in repr(hist)
    hist.reset()
    assert hist.count == 0
    assert hist.sum == 0.0


def test_family_label_mismatch_raises():
    registry = MetricsRegistry()
    family = registry.counter("calls", "by method", labelnames=("method",))
    with pytest.raises(ValueError):
        family.labels(wrong="x")
    with pytest.raises(ValueError):
        registry.counter("calls", "by method")  # unlabeled vs family
    with pytest.raises(ValueError):
        registry.counter("calls", "by method", labelnames=("other",))
    registry.counter("plain", "no labels")
    with pytest.raises(ValueError):
        registry.counter("plain", "no labels", labelnames=("method",))


def test_registry_get_and_reset_cover_families():
    registry = MetricsRegistry()
    family = registry.counter("calls", "by method", labelnames=("method",))
    family.labels(method="ask").inc(3)
    assert registry.get("calls") is family
    assert registry.get("missing") is None
    registry.reset()
    assert family.labels(method="ask").value == 0


# ----------------------------------------------------------------------
# Span export edge cases
# ----------------------------------------------------------------------
def test_span_attributes_events_render_and_repr():
    tracer = Tracer()
    with tracer.span("outer", engine="oracle") as span:
        span.set_attribute("semantics", "gcwa")
        span.add_event("retry", attempt=1)
        with tracer.span("inner"):
            pass
    (root,) = tracer.finished_roots()
    node = root.as_dict()
    assert node["attributes"]["semantics"] == "gcwa"
    assert node["events"][0]["name"] == "retry"
    text = root.render()
    assert text.startswith("outer")
    assert "semantics=gcwa" in text
    assert "! retry" in text and "attempt=1" in text
    assert "\n  inner" in text
    assert "children=1" in repr(root)


def test_tracer_current_clear_and_render_tree():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("root") as span:
        assert tracer.current() is span
    assert tracer.current() is None
    assert tracer.render_tree().startswith("root")
    tracer.clear()
    assert tracer.finished_roots() == []
    assert tracer.render_tree() == ""


def test_noop_tracer_exports_are_empty():
    noop = NoopTracer()
    assert noop.current() is noop.span("anything")
    assert noop.finished_roots() == []
    assert noop.export_jsonl() == ""
    assert noop.render_tree() == ""


def test_set_tracer_returns_previous():
    from repro.obs.trace import set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        assert active_tracer() is tracer
    finally:
        assert set_tracer(previous) is tracer
    assert active_tracer() is previous


# ----------------------------------------------------------------------
# Accounting edge cases
# ----------------------------------------------------------------------
def test_observation_as_dict_and_degenerate_dispatch():
    from repro.obs.accounting import note_sigma2_dispatch

    with observe() as window:
        note_np_call()
        note_sigma2_dispatch()  # the machine's k* = 0 short-circuit
    assert window.as_dict() == {
        "np_calls": 1,
        "sigma2_dispatches": 1,
        "nodes": 0,
        "max_sigma2_depth": 1,
    }
