"""Thread/task-safety audit of the process-wide singletons.

The serve layer runs evaluation on a thread pool, so every global it
touches must hold up under interleaving: the engine LRU cache
(:data:`repro.engine.cache.ENGINE_CACHE`), the solver pool
(:data:`repro.sat.incremental.SOLVER_POOL`), the metrics registry
(:data:`repro.obs.metrics.METRICS`), the runtime counter facade
(:data:`repro.runtime.budget.RUNTIME_STATS`) and the module-global
tracer.  Each test here drives a *fresh* instance of the class behind
the singleton from many threads with hypothesis-chosen schedules and
asserts exact counter arithmetic — lost updates show up as off-by-N.

Three tests drive the oracle accounting (:mod:`repro.obs.accounting`)
itself: concurrent sessions must each report exactly their own
single-threaded observations and CDCL statistics, a window shared by
contexts copied into other threads must lose no tick, and concurrent
Σ₂ᵖ dispatches must never lower the process-wide max-depth gauge.

One test is a pure source scan: the audit found that
``RUNTIME_STATS.<counter> += 1`` expands to a locked read followed by a
locked write (two critical sections, not one), which loses updates under
interleaving.  Every call site was migrated to the atomic
:meth:`~repro.runtime.budget.RuntimeStats.inc`; the scan keeps the racy
pattern from creeping back.
"""

from __future__ import annotations

import contextvars
import json
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import EngineCache, clear_cache
from repro.logic.transform import rename_atoms
from repro.obs import accounting
from repro.obs.metrics import Gauge, MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime.budget import RUNTIME_STATS
from repro.sat.incremental import SolverPool, clear_solver_pool
from repro.session import DatabaseSession
from repro.workloads import random_deductive_db


def run_threads(count, target):
    """Start ``count`` threads on ``target(index)`` and join them all;
    re-raise the first worker exception in the caller."""
    errors = []

    def wrap(index):
        try:
            target(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(index,))
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# Engine LRU cache
# ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    threads=st.integers(min_value=2, max_value=8),
    keys=st.integers(min_value=1, max_value=6),
    rounds=st.integers(min_value=5, max_value=40),
)
def test_engine_cache_interleaved_get_or_compute(threads, keys, rounds):
    """Racing lookups never observe a wrong value, and the hit/miss
    arithmetic reconciles exactly with the number of lookups."""
    cache = EngineCache(maxsize=64)
    builds = []
    build_lock = threading.Lock()

    def worker(index):
        for round_no in range(rounds):
            key = (index + round_no) % keys

            def builder(key=key):
                with build_lock:
                    builds.append(key)
                return ("value", key)

            value = cache.get_or_compute("kind", key, builder)
            assert value == ("value", key)

    run_threads(threads, worker)
    stats = cache.stats()
    lookups = threads * rounds
    assert stats["hits"] + stats["misses"] == lookups
    # Racing threads may each observe a miss for the same key, but the
    # cache ends up with exactly the distinct keys, no duplicates/loss.
    assert len(cache) == keys
    assert stats["misses"] >= keys
    assert stats["misses"] == len(builds)
    assert stats["evictions"] == 0


def test_engine_cache_first_store_wins_on_race():
    """When two threads miss the same key, every caller gets the one
    stored value (no torn publication)."""
    cache = EngineCache(maxsize=8)
    barrier = threading.Barrier(4)
    seen = []
    seen_lock = threading.Lock()

    def worker(index):
        barrier.wait()

        def builder():
            return ("built-by", index)

        value = cache.get_or_compute("race", "k", builder)
        with seen_lock:
            seen.append(value)

    run_threads(4, worker)
    # All four observed the same winning value, which is the cached one.
    assert len(set(seen)) == 1
    assert cache.peek("race", "k") == seen[0]


# ----------------------------------------------------------------------
# Solver pool
# ----------------------------------------------------------------------

class _StubSolver:
    """Just enough surface for SolverPool bookkeeping."""

    def __init__(self):
        self.scopes_retired = 0
        self._last_checkout_token = None

    def num_learned(self):
        return 1


@settings(max_examples=15, deadline=None)
@given(
    threads=st.integers(min_value=2, max_value=8),
    keys=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=5, max_value=30),
)
def test_solver_pool_checkout_exclusivity(threads, keys, rounds):
    """A checked-out solver is never concurrently held by two threads,
    and the created/reused/released counters reconcile exactly."""
    pool = SolverPool(maxsize=8)
    in_use = set()
    in_use_lock = threading.Lock()

    def worker(index):
        for round_no in range(rounds):
            key = (index + round_no) % keys
            solver = pool.acquire(key, _StubSolver)
            with in_use_lock:
                # acquire() removes the solver from the pool, so no
                # other thread may hold this exact instance right now.
                assert id(solver) not in in_use
                in_use.add(id(solver))
            with in_use_lock:
                in_use.remove(id(solver))
            pool.release(key, solver)

    run_threads(threads, worker)
    acquires = threads * rounds
    stats = pool.stats()
    assert (
        stats["solvers_created"]
        + stats["solver_reuses"]
        + stats["solver_repeat_checkouts"]
        == acquires
    )
    assert stats["solver_releases"] == acquires
    # Conservation: only acquire() creates instances, so the pool can
    # never hold more solvers than were ever built, nor exceed its
    # bound, and discards/evictions can't outnumber releases.
    assert stats["solvers_pooled"] <= stats["pool_maxsize"]
    assert stats["solvers_pooled"] <= stats["solvers_created"]
    assert (
        stats["solvers_discarded"] + stats["solver_evictions"]
        <= stats["solver_releases"]
    )


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_metrics_counters_exact_under_threads():
    registry = MetricsRegistry()
    counter = registry.counter("ts_total", "racing counter")
    labelled = registry.counter(
        "ts_labelled_total", "racing family", labelnames=("who",)
    )
    hist = registry.histogram(
        "ts_hist", "racing histogram", buckets=(1.0, 10.0)
    )
    gauge = registry.gauge("ts_gauge", "racing gauge")
    per_thread = 400

    def worker(index):
        child = labelled.labels(who=f"w{index % 2}")
        for value in range(per_thread):
            counter.inc()
            child.inc()
            hist.observe(float(value % 5))
            gauge.inc()
            gauge.dec()

    run_threads(8, worker)
    assert counter.value == 8 * per_thread
    assert (
        labelled.labels(who="w0").value
        + labelled.labels(who="w1").value
        == 8 * per_thread
    )
    assert hist.count == 8 * per_thread
    assert hist.sum == 8 * sum(v % 5 for v in range(per_thread))
    assert gauge.value == 0
    # The exposition renders mid-traffic state without tearing.
    assert "ts_total 3200" in registry.expose()


# ----------------------------------------------------------------------
# Runtime counter facade
# ----------------------------------------------------------------------

def test_runtime_stats_inc_is_atomic():
    """Regression for the audited race: the ``+=`` facade was a locked
    read then a locked write, so concurrent bumps lost updates.  The
    atomic ``inc`` must account every single bump."""
    before = RUNTIME_STATS.snapshot()["budgets_exceeded"]
    per_thread = 500

    def worker(index):
        for _ in range(per_thread):
            RUNTIME_STATS.inc("budgets_exceeded")

    run_threads(8, worker)
    after = RUNTIME_STATS.snapshot()["budgets_exceeded"]
    assert after - before == 8 * per_thread
    # Put the counter back so other tests' snapshots stay meaningful.
    RUNTIME_STATS.budgets_exceeded = before


def test_runtime_stats_inc_rejects_unknown_counter():
    try:
        RUNTIME_STATS.inc("not_a_counter")
    except AttributeError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("inc() accepted an unknown counter name")


def test_runtime_stats_rmw_caught_by_race_detector(tmp_path):
    """The ``RUNTIME_STATS.x += n`` lost-update pattern (the original
    PR 9 race, once policed by a regex scan here) is now rule RPR202 of
    the whole-program race detector: re-injecting the exact pattern
    into a module must produce a finding at the offending line, and the
    production tree itself must stay clean (``repro-ddb check`` gates
    this in CI)."""
    from repro.analysis.static import checker

    injected = tmp_path / "reinjected_pr9_race.py"
    injected.write_text(
        "from repro.runtime.budget import RUNTIME_STATS\n"
        "\n"
        "\n"
        "def tick():\n"
        "    RUNTIME_STATS.budgets_exceeded += 1\n",
        encoding="utf-8",
    )
    report = checker.check(extra_paths=[injected])
    hits = [
        finding for finding in report.findings
        if finding.rule == "RPR202" and finding.path == str(injected)
    ]
    assert [finding.line for finding in hits] == [5]
    # And the production tree carries no such site anywhere.
    assert [
        finding for finding in report.findings
        if finding.path != str(injected)
    ] == []


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_tracer_spans_from_many_threads():
    """Spans opened on the shared tracer from different threads keep
    their own parent stacks (the current-span slot is a ContextVar, so
    each thread nests independently) and every finished root lands in
    the ring buffer exactly once."""
    tracer = Tracer(max_finished=256)
    roots_per_thread = 20

    def worker(index):
        for round_no in range(roots_per_thread):
            with tracer.span(f"root-{index}-{round_no}") as root:
                with tracer.span("child") as child:
                    child.set_attribute("thread", index)
                assert tracer.current() is root

    run_threads(6, worker)
    roots = tracer.finished_roots()
    assert len(roots) == 6 * roots_per_thread
    names = {span.name for span in roots}
    assert len(names) == 6 * roots_per_thread  # no root lost or doubled
    for line in tracer.export_jsonl().splitlines():
        record = json.loads(line)
        assert len(record["children"]) == 1


# ----------------------------------------------------------------------
# Oracle accounting
# ----------------------------------------------------------------------

#: (session method, query over atoms v1..v8, semantics) — a fixed
#: sequence mixing coNP and Pi2p cells, literal and formula inference.
_ACCOUNTING_QUERIES = (
    ("ask", "{v1} | {v2}", "egcwa"),
    ("ask", "~{v3} | ~{v4}", "gcwa"),
    ("ask_literal", "~{v5}", "egcwa"),
    ("ask", "{v6} | ~{v7}", "dsm"),
    ("ask", "~{v1} | ~{v8}", "ecwa"),
    ("ask_literal", "~{v2}", "gcwa"),
    ("ask", "{v3} | {v4} | {v5}", "egcwa"),
)


def _accounting_sequence(index):
    """Run the fixed sequence on thread ``index``'s own database (the
    same structure under thread-specific atom names, so threads share no
    cache entry and no pooled solver); returns each answer's accounting."""
    rename = {f"v{i}": f"v{i}_t{index}" for i in range(1, 9)}
    db = rename_atoms(
        random_deductive_db(8, 10, ic_fraction=0.2, seed=7), rename
    )
    session = DatabaseSession(db, engine="oracle", certificates=False)
    results = []
    for method, query, semantics in _ACCOUNTING_QUERIES:
        answer = getattr(session, method)(query.format(**rename), semantics)
        results.append((answer.observation, answer.solver_stats))
    return results


def test_query_accounting_exact_under_threads():
    """Every per-query figure counts the query's own work only: T
    sessions started together on a barrier report exactly the
    observations and CDCL statistics their sequences report alone."""
    threads = 4
    alone = []
    for index in range(threads):
        clear_cache()
        clear_solver_pool()
        alone.append(_accounting_sequence(index))
    assert any(obs.np_calls for obs, _ in alone[0])
    assert any(stats["solve_calls"] for _, stats in alone[0])
    clear_cache()
    clear_solver_pool()
    barrier = threading.Barrier(threads)
    together = [None] * threads

    def worker(index):
        barrier.wait()
        together[index] = _accounting_sequence(index)

    run_threads(threads, worker)
    assert together == alone


def test_window_shared_by_copied_contexts_loses_no_tick():
    """Contexts copied inside a window and run on other threads share
    the window; every thread's ticks land in it exactly once."""
    per_thread = 2000

    def tick():
        for _ in range(per_thread):
            accounting.note_np_call()
            accounting.note_nodes(2)

    with accounting.observe() as window:
        contexts = [contextvars.copy_context() for _ in range(8)]
        run_threads(8, lambda index: contexts[index].run(tick))
    assert window.np_calls == 8 * per_thread
    assert window.nodes == 8 * 2 * per_thread


def test_max_depth_gauge_never_lowered_by_concurrent_dispatch(monkeypatch):
    """A depth-1 dispatch racing a depth-2 dispatch must not overwrite
    the process-wide max-depth gauge with 1: that would hide a nested
    dispatch (a Pi2p envelope violation) from ``/metrics``."""
    progress, nested_done = threading.Event(), threading.Event()
    stalled = threading.local()

    class StallingGauge(Gauge):
        """Reads from the stalled thread pause until the nested dispatch
        is done: that thread is preempted between reading the high-water
        mark and writing it back."""

        __slots__ = ()

        @property
        def value(self):
            current = Gauge.value.fget(self)
            if getattr(stalled, "on", False):
                progress.set()
                nested_done.wait(timeout=5)
            return current

    gauge = StallingGauge("test_max_sigma2_depth")
    monkeypatch.setattr(accounting, "MAX_DISPATCH_DEPTH", gauge)

    def worker(index):
        if index == 0:
            stalled.on = True
            with accounting.sigma2_dispatch():
                pass
            progress.set()
        else:
            progress.wait(timeout=5)
            with accounting.sigma2_dispatch():
                with accounting.sigma2_dispatch():
                    pass
            nested_done.set()

    run_threads(2, worker)
    assert gauge.value == 2
