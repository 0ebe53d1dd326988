"""The repository's benchmark: three workloads, one command.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric (``BENCHMARK.json``);
``--trace 1`` runs half the time untraced and half under the layer
wrappers and prints every per-layer metric, the tracing overhead and a
per-layer diagnosis table.  Every answer is compared with an independent
reference outside the timed window; the last stdout line of a workload
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is 1 on any failed query.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Databases streamed through a fresh churn daemon before timing, enough
#: for the engine cache and the solver pool to evict steadily.
CHURN_WARMUP_DBS = 200
#: Databases (a fixed set) a fresh session-sigma2 worker answers before
#: timing.
SIGMA2_WARMUP_DBS = 30
#: Generous upper bounds on databases consumed per timed second.
CHURN_DBS_PER_S = 250
SIGMA2_DBS_PER_S = 100
#: Sub-window length, and the queries ``p99_ms`` is taken over (see
#: ``best_window``).
WINDOW_S = 2.0
TAIL_SAMPLES = 1000

#: Unit of every metric the benchmark prints (BENCHMARK.json lists them).
UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "np_calls_per_query": "count",
    "sigma2_per_query": "count",
    "nodes_per_query": "count",
    "peak_rss_mb": "MB",
    "serve.batch_width": "count",
    "engine.hit_rate": "ratio",
    "engine.evictions_per_kq": "1/kq",
    "engine.entries": "count",
    "analysis.fast_path_share": "ratio",
    "kernel.share": "ratio",
    "sat.pool_reuse_rate": "ratio",
    "proc.cpu_util": "cores",
    "sat.solve_calls_per_query": "count",
    "sat.propagations_per_call": "count",
    "sat.conflicts_per_call": "count",
    "sat.decisions_per_call": "count",
    "unattributed_ms": "ms",
    "obs.np_misattributed": "count",
    "trace.overhead_pct": "%",
}

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def split(done: List[float], latency_ms: List[float], elapsed: float, parts: int):
    """The latencies of ``parts`` equal sub-windows of the timed window
    (``done`` holds completion times relative to its start), and their
    length."""
    width = elapsed / parts
    buckets: List[List[float]] = [[] for _ in range(parts)]
    for when, latency in zip(done, latency_ms):
        buckets[min(parts - 1, int(when / width))].append(latency)
    return [b for b in buckets if b], width


def best_window(done: List[float], latency_ms: List[float], elapsed: float):
    """Throughput, p50 and p99 of the fastest sub-windows of the timed
    window.

    The host shares its cores: for seconds to minutes at a time other
    work on it slows them, CPU time and wall time alike, and it never
    speeds a run up.  The fastest sub-windows therefore come closest to
    the program's own speed, as ``timeit`` takes the least of its
    repeats; medians over sub-windows or the whole window carry how much
    of the run the host was busy.  ``qps`` is that of the fastest ``WINDOW_S`` sub-window and
    ``p50_ms`` the least sub-window median; ``p99_ms`` pools the fastest
    sub-windows until they hold ``TAIL_SAMPLES`` queries, so that ten
    samples lie beyond it."""
    windows, width = split(done, latency_ms, elapsed, max(1, int(elapsed / WINDOW_S)))
    fastest = sorted(windows, key=len, reverse=True)
    tail: List[float] = []
    for window in fastest:
        tail += window
        if len(tail) >= TAIL_SAMPLES:
            break
    return {
        "qps": len(fastest[0]) / width,
        "p50_ms": min(percentile(w, 0.50) for w in windows),
        "p99_ms": percentile(tail, 0.99),
    }


def proc_status(pid: int) -> Dict[str, Any]:
    """Peak RSS (MB) and CPU seconds of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        hwm = next(
            int(line.split()[1]) for line in handle if line.startswith("VmHWM:")
        )
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return {
        "peak_rss_mb": hwm / 1024.0,
        "cpu_s": (int(fields[11]) + int(fields[12])) / ticks,
    }


class Child:
    """A benchmark child process speaking the ``@perfbench`` protocol."""

    def __init__(self, argv: List[str], interrupt: bool = False):
        self.interrupt = interrupt
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited unexpectedly")
        return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def command(self, line: str) -> Dict[str, Any]:
        self.send(line)
        while True:
            text = self.readline()
            if text.startswith("@perfbench "):
                return json.loads(text[len("@perfbench "):])

    def status(self) -> Dict[str, Any]:
        return proc_status(self.proc.pid)

    def stop(self) -> None:
        """End of input, plus SIGINT for the daemon (its shutdown path),
        then wait."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            if self.interrupt:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class ServeWorkload:
    """Shared machinery: a daemon, ``nproc`` connections, scrapes."""

    def __init__(self, seed: int):
        self.seed = seed
        self.daemon: Optional[Child] = None
        self.connections: List[Any] = []
        self.records: List[Any] = []

    async def launch(self) -> None:
        from client import Connection

        self.daemon = Child([str(HERE / "daemon.py"), self.engine], interrupt=True)
        while True:
            match = _LISTENING.search(self.daemon.readline())
            if match:
                break
        host, port = match.group(1), int(match.group(2))
        self.connections = [
            await Connection(host, port).open() for _ in range(nproc())
        ]

    async def close(self) -> None:
        for conn in self.connections:
            await conn.close()
        self.connections = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    async def phase(self, ids, seconds=None, jobs=None):
        from client import run_phase

        jobs = jobs if jobs is not None else self.jobs()
        limit = (seconds or 0) + 120
        result = await asyncio.wait_for(
            run_phase(self.connections, jobs, ids, seconds), limit
        )
        self.records.extend(result.records)
        return result

    async def scrape(self) -> Dict[str, Any]:
        from client import scrape

        snapshot = await scrape(self.connections[0])
        snapshot["proc"] = self.daemon.status()
        return snapshot


class ServeWarm(ServeWorkload):
    """The default ``cached`` engine over the fixed 144-query working set."""

    engine = "cached"

    def __init__(self, seed: int):
        from inputs import warm_order, warm_set

        super().__init__(seed)
        self.cases = warm_set()
        self.orders = warm_order(seed, nproc())
        self.expected = None

    async def setup(self, ids) -> None:
        from inputs import warm_reference
        from repro.engine.cache import clear_cache

        await self.launch()
        self.bodies = {}
        for d, case in enumerate(self.cases):
            status, reply = await self.connections[0].post_json(
                "/v1/databases",
                {"text": case.text, "vocabulary": list(case.vocabulary)},
            )
            if status != 200:
                raise RuntimeError(f"registration failed: {reply}")
            for q, query in enumerate(case.queries):
                body = {"db": reply["db"], **query.payload()}
                self.bodies[(d, q)] = json.dumps(body).encode("utf-8")
        await self.phase(ids, jobs=self._jobs(self.orders))
        clear_cache()
        self.expected = warm_reference(self.cases)

    def _jobs(self, orders) -> List[Iterator[Any]]:
        from client import Job

        return [
            (Job(key, lambda b=self.bodies[key]: b) for key in order)
            for order in orders
        ]

    def jobs(self) -> List[Iterator[Any]]:
        return self._jobs(itertools.cycle(order) for order in self.orders)

    def check(self) -> List[str]:
        bad = []
        for record in self.records:
            d, q = record.key
            if record.status != 200:
                bad.append(f"{record.key}: HTTP {record.status} {record.answer}")
            elif record.answer != self.expected[d][q]:
                bad.append(
                    f"{record.key}: got {record.answer}, "
                    f"reference {self.expected[d][q]}"
                )
        return bad


class ServeChurn(ServeWorkload):
    """``--engine planned`` under a stream of never-seen databases."""

    engine = "planned"

    def __init__(self, seed: int, seconds: float):
        from inputs import churn_case

        super().__init__(seed)
        count = CHURN_WARMUP_DBS + int(seconds * CHURN_DBS_PER_S)
        self.cases = [churn_case(seed, i) for i in range(count)]
        self.cursor = 0

    def _case(self, index: int):
        from inputs import churn_case

        while index >= len(self.cases):
            self.cases.append(churn_case(self.seed, len(self.cases)))
        return self.cases[index]

    def _stream(self, stop: Optional[int] = None) -> Iterator[Any]:
        from client import Job

        while stop is None or self.cursor < stop:
            index = self.cursor
            self.cursor += 1
            case = self._case(index)
            known: Dict[str, str] = {}

            def remember(status, payload, known=known):
                if status == 200 and "db" in payload:
                    known["db"] = payload["db"]

            for q, query in enumerate(case.queries):
                def body(case=case, query=query, known=known) -> bytes:
                    if "db" in known:
                        target = {"db": known["db"]}
                    else:
                        target = {
                            "database": case.text,
                            "vocabulary": list(case.vocabulary),
                        }
                    return json.dumps({**target, **query.payload()}).encode()

                yield Job((index, q), body, remember)

    async def setup(self, ids) -> None:
        await self.launch()
        self.cursor = 0
        await self.phase(
            ids, jobs=[self._stream(CHURN_WARMUP_DBS) for _ in self.connections]
        )

    def jobs(self) -> List[Iterator[Any]]:
        return [self._stream() for _ in self.connections]

    def check(self) -> List[str]:
        from inputs import structure_reference

        by_case: Dict[int, List[Any]] = {}
        for record in self.records:
            by_case.setdefault(record.key[0], []).append(record)
        bad = []
        for index, records in sorted(by_case.items()):
            expected = structure_reference(self._case(index))
            for record in records:
                want = expected[record.key[1]]
                if record.status != 200:
                    bad.append(f"{record.key}: HTTP {record.status} {record.answer}")
                elif record.answer != want:
                    bad.append(f"{record.key}: got {record.answer}, reference {want}")
        return bad


def _delta(after: Dict[str, float], before: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _planner_counts(after, before) -> Dict[str, float]:
    prefix = 'repro_planner_queries_total{procedure="'
    return {
        key[len(prefix):-2]: _delta(after, before, key)
        for key in after
        if key.startswith(prefix)
    }


async def run_serve(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    from client import QueryIds

    ids = QueryIds()
    setups = []
    try:
        for rep in range(1 if trace else SETUP_REPS):
            if rep:
                await workload.close()
            workload.records = []
            started = time.perf_counter()
            await workload.setup(ids)
            setups.append(time.perf_counter() - started)
        jobs = workload.jobs()
        if not trace:
            before = await workload.scrape()
            timed = await workload.phase(ids, seconds, jobs)
            after = await workload.scrape()
            return {
                "setups": setups,
                "timed": timed,
                "before": before,
                "after": after,
                "records": workload.records,
            }
        half = seconds / 2.0
        plain_before = await workload.scrape()
        plain = await workload.phase(ids, half, jobs)
        plain_after = await workload.scrape()
        workload.daemon.command("trace-on")
        before = await workload.scrape()
        traced = await workload.phase(ids, half, jobs)
        after = await workload.scrape()
        dump = workload.daemon.command("dump")
        workload.daemon.command("trace-off")
        return {
            "plain": plain,
            "plain_before": plain_before,
            "plain_after": plain_after,
            "traced": traced,
            "before": before,
            "after": after,
            "dump": dump,
            "records": workload.records,
        }
    finally:
        await workload.close()


def serve_end_to_end(out: Dict[str, Any]):
    timed, before, after = out["timed"], out["before"], out["after"]
    count = len(timed.records)
    m0, m1 = before["metrics"], after["metrics"]
    return {
        "setup_s": statistics.median(out["setups"]),
        **best_window(
            [r.done_s - timed.started_s for r in timed.records],
            [r.latency_ns / 1e6 for r in timed.records],
            timed.elapsed_s,
        ),
        "np_calls_per_query": _delta(m1, m0, "repro_oracle_np_calls_total") / count,
        "peak_rss_mb": after["proc"]["peak_rss_mb"],
    }, count


def serve_counters(out: Dict[str, Any], queries: int) -> Dict[str, float]:
    """Per-layer counter metrics over the traced half (and the daemon's
    CPU use over the untraced half)."""
    s0, s1 = out["before"]["stats"], out["after"]["stats"]
    m0, m1 = out["before"]["metrics"], out["after"]["metrics"]
    batches = s1["batches"] - s0["batches"]
    items = s1["batched_items"] - s0["batched_items"]
    hits = s1["cache"]["hits"] - s0["cache"]["hits"]
    misses = s1["cache"]["misses"] - s0["cache"]["misses"]
    reused = s1["solver_pool"]["solver_reuses"] - s0["solver_pool"]["solver_reuses"]
    created = (
        s1["solver_pool"]["solvers_created"] - s0["solver_pool"]["solvers_created"]
    )
    plans = _planner_counts(m1, m0)
    planned = sum(plans.values())
    plain = out["plain"]
    cpu = out["plain_after"]["proc"]["cpu_s"] - out["plain_before"]["proc"]["cpu_s"]
    return {
        "serve.batch_width": items / batches if batches else 0.0,
        "engine.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.evictions_per_kq": 1000.0
        * (s1["cache"]["evictions"] - s0["cache"]["evictions"]) / queries,
        "engine.entries": float(s1["cache"]["entries"]),
        "analysis.fast_path_share": (
            (planned - plans.get("default", 0.0)) / planned if planned else 0.0
        ),
        "kernel.share": plans.get("kernel-bitset", 0.0) / planned if planned else 0.0,
        "sat.pool_reuse_rate": reused / (reused + created) if reused + created else 0.0,
        "sigma2_per_query": _delta(m1, m0, "repro_oracle_sigma2_dispatches_total")
        / queries,
        "nodes_per_query": _delta(m1, m0, "repro_search_nodes_total") / queries,
        "proc.cpu_util": cpu / plain.elapsed_s,
    }


# ----------------------------------------------------------------------
# session-sigma2
# ----------------------------------------------------------------------
def run_session(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from inputs import sigma2_case

    # The warm-up set is the same for every seed: it only initialises the
    # worker, and a seed-dependent one would put input difficulty into
    # setup_s.
    cases = [
        sigma2_case(0, i, corpus="warm-up") for i in range(SIGMA2_WARMUP_DBS)
    ]
    cases += [sigma2_case(seed, i) for i in range(int(seconds * SIGMA2_DBS_PER_S))]
    payload = json.dumps([c.as_json() for c in cases])
    setups = []
    worker = None
    try:
        for rep in range(1 if trace else SETUP_REPS):
            if worker is not None:
                worker.stop()
            started = time.perf_counter()
            worker = Child([str(HERE / "session_worker.py")])
            worker.command(payload)
            warm = worker.command(json.dumps({"cmd": "run", "cases": SIGMA2_WARMUP_DBS}))
            setups.append(time.perf_counter() - started)
        runs = [warm]
        if trace:
            half = seconds / 2.0
            for traced in (False, True):
                before = worker.status()
                run = worker.command(
                    json.dumps({"cmd": "run", "seconds": half, "trace": traced})
                )
                run["proc_before"], run["proc_after"] = before, worker.status()
                runs.append(run)
        else:
            run = worker.command(json.dumps({"cmd": "run", "seconds": seconds}))
            run["proc_after"] = worker.status()
            runs.append(run)
    finally:
        if worker is not None:
            worker.stop()
    if runs[-1]["exhausted"]:
        print(
            "perfbench: the generated stream ran out before the window "
            "ended; raise SIGMA2_DBS_PER_S",
            file=sys.stderr,
        )
    return {"cases": cases, "setups": setups, "runs": runs}


def check_session(out: Dict[str, Any]) -> List[str]:
    from inputs import structure_reference

    bad = []
    for run in out["runs"]:
        for offset, answers in enumerate(run["answers"]):
            index = run["first_case"] + offset
            expected = structure_reference(out["cases"][index])
            for q, got in enumerate(answers):
                if got != expected[q]:
                    bad.append(f"({index}, {q}): got {got}, reference {expected[q]}")
    return bad


def session_end_to_end(out: Dict[str, Any]):
    run = out["runs"][-1]
    count = len(run["latency_ns"])
    return {
        "setup_s": statistics.median(out["setups"]),
        **best_window(
            run["done_s"], [ns / 1e6 for ns in run["latency_ns"]], run["elapsed_s"]
        ),
        "np_calls_per_query": run["np_calls"] / count,
        "peak_rss_mb": run["proc_after"]["peak_rss_mb"],
    }, count


def session_counters(run: Dict[str, Any], plain: Dict[str, Any]) -> Dict[str, float]:
    queries = len(run["latency_ns"])
    c0, c1 = run["cache_before"], run["cache_after"]
    p0, p1 = run["pool_before"], run["pool_after"]
    hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
    reused = p1["solver_reuses"] - p0["solver_reuses"]
    created = p1["solvers_created"] - p0["solvers_created"]
    cpu = plain["proc_after"]["cpu_s"] - plain["proc_before"]["cpu_s"]
    return {
        "serve.batch_width": 0.0,
        "engine.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "engine.evictions_per_kq": 1000.0 * (c1["evictions"] - c0["evictions"]) / queries,
        "engine.entries": float(c1["entries"]),
        "analysis.fast_path_share": 0.0,
        "kernel.share": 0.0,
        "sat.pool_reuse_rate": reused / (reused + created) if reused + created else 0.0,
        "sigma2_per_query": run["sigma2"] / queries,
        "nodes_per_query": run["nodes"] / queries,
        "proc.cpu_util": cpu / plain["elapsed_s"],
    }


# ----------------------------------------------------------------------
# Per-layer metrics and the diagnosis table
# ----------------------------------------------------------------------
def layer_metrics(dump, queries: int, wall_ns: float, counters, overhead):
    from layers import LAYERS

    layers = dump["layers"]
    metrics = {
        metric: layers.get(layer, {}).get("self_ns", 0) / 1e6 / queries
        for layer, metric, _ in LAYERS
    }
    solves = layers.get("sat.solve", {}).get("calls", 0)
    tally = dump["counters"]
    metrics.update(counters)
    metrics.update({
        "sat.solve_calls_per_query": solves / queries,
        "sat.propagations_per_call": tally.get("propagations", 0) / solves if solves else 0.0,
        "sat.conflicts_per_call": tally.get("conflicts", 0) / solves if solves else 0.0,
        "sat.decisions_per_call": tally.get("decisions", 0) / solves if solves else 0.0,
        "unattributed_ms": (wall_ns - dump["query_self_ns"]) / 1e6 / queries,
        "obs.np_misattributed": float(tally.get("np_misattributed", 0)),
        "trace.overhead_pct": overhead,
    })
    return metrics


def diagnosis_table(workload: str, dump, queries: int, wall_ns: float) -> str:
    """Markdown: one row per layer, self ms per query, share of the
    query wall time, and the layer's counts per query."""
    from layers import LAYERS

    counters = dump["counters"]
    extra = {
        "sat.solve": (
            f"NP ticks {counters.get('np_calls', 0) / queries:.2f}/q, "
            f"propagations {counters.get('propagations', 0)}, "
            f"conflicts {counters.get('conflicts', 0)}"
        ),
        "session.self": f"NP misattributed {counters.get('np_misattributed', 0)}",
    }
    rows = [
        f"### {workload}: per-layer diagnosis ({queries} traced queries)",
        "",
        "| layer | self ms/query | share of wall | calls/query | counts |",
        "|---|---:|---:|---:|---|",
    ]
    for layer, _metric, _ in sorted(
        LAYERS, key=lambda e: -dump["layers"].get(e[0], {}).get("self_ns", 0)
    ):
        entry = dump["layers"].get(layer, {"self_ns": 0, "calls": 0})
        rows.append(
            f"| {layer} | {entry['self_ns'] / 1e6 / queries:.4f} | "
            f"{100.0 * entry['self_ns'] / wall_ns:.1f}% | "
            f"{entry['calls'] / queries:.2f} | {extra.get(layer, '')} |"
        )
    rest = wall_ns - dump["query_self_ns"]
    rows.append(
        f"| (unattributed) | {rest / 1e6 / queries:.4f} | "
        f"{100.0 * rest / wall_ns:.1f}% | | |"
    )
    return "\n".join(rows)


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, attempted, failures, report lines)."""
    lines: List[str] = []
    if workload == "session-sigma2":
        out = run_session(seed, seconds, trace)
        bad = check_session(out)
        attempted = sum(len(r["latency_ns"]) for r in out["runs"])
        if not trace:
            metrics, count = session_end_to_end(out)
        else:
            _warm, plain, traced = out["runs"]
            queries = len(traced["latency_ns"])
            wall = float(sum(traced["latency_ns"]))
            qps = [len(r["latency_ns"]) / r["elapsed_s"] for r in (plain, traced)]
            metrics = layer_metrics(
                traced["trace"], queries, wall,
                session_counters(traced, plain),
                100.0 * (qps[0] - qps[1]) / qps[0],
            )
            lines.append(diagnosis_table(workload, traced["trace"], queries, wall))
            count = queries
    else:
        runner = ServeWarm(seed) if workload == "serve-warm" else ServeChurn(seed, seconds)
        out = asyncio.run(run_serve(runner, seconds, trace))
        bad = runner.check()
        attempted = len(out["records"])
        if not trace:
            metrics, count = serve_end_to_end(out)
        else:
            dump = out["dump"]
            queries = dump["queries"]
            wall = float(dump["query_wall_ns"])
            plain, traced = out["plain"], out["traced"]
            qps = [len(p.records) / p.elapsed_s for p in (plain, traced)]
            metrics = layer_metrics(
                dump, queries, wall, serve_counters(out, queries),
                100.0 * (qps[0] - qps[1]) / qps[0],
            )
            lines.append(diagnosis_table(workload, dump, queries, wall))
            count = queries
    return metrics, count, attempted, bad, lines


WORKLOADS = ("serve-warm", "serve-churn", "session-sigma2")


def report(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its metrics and its JSON result line;
    True when every answer matched the reference."""
    from layers import metric_names

    units = dict(UNITS, **{name: "ms" for name in metric_names()})
    metrics, count, attempted, bad, lines = measure(workload, seed, seconds, trace)
    for line in lines:
        print(line)
    print(f"### {workload} seed {seed}: {count} timed queries")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    if not trace:
        tail = min(count, TAIL_SAMPLES)
        print(
            f"latency sample: {count} queries in {WINDOW_S:g}-second "
            f"sub-windows; p99 over the fastest holding >= {tail}, "
            f"{int(0.01 * tail)} beyond it"
        )
    for failure in bad[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)
    return not bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="one workload, or all three in turn (one JSON line each)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [
        report(workload, args.seed, args.seconds, bool(args.trace))
        for workload in workloads
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
