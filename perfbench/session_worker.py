"""The process that evaluates the session-sigma2 workload.

Single-threaded library use, no HTTP: one ``DatabaseSession`` (default
``oracle`` engine) per database.  The first stdin line carries the
generated cases (database text, vocabulary, queries); the databases are
parsed up front, as an application holds its data.  Then one JSON
command per line, each answered with one ``@perfbench <json>`` line:

* ``{"cmd": "run", "cases": n}`` — answer the next ``n`` cases (warm-up);
* ``{"cmd": "run", "seconds": s, "trace": bool}`` — a closed loop over
  the next cases until ``s`` seconds have passed, optionally under the
  layer wrappers.

    python3 perfbench/session_worker.py < commands
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import DbCase  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.engine.cache import cache_stats  # noqa: E402
from repro.obs.accounting import totals  # noqa: E402
from repro.sat.incremental import solver_pool_stats  # noqa: E402
from repro.session import DatabaseSession  # noqa: E402


def reply(payload) -> None:
    sys.stdout.write("@perfbench " + json.dumps(payload) + "\n")
    sys.stdout.flush()


def answer(session: DatabaseSession, query) -> bool:
    if query.task == "infers_literal":
        return session.ask_literal(query.query, query.semantics).verdict
    return session.ask(query.query, semantics=query.semantics).verdict


class Worker:
    def __init__(self, cases):
        self.cases = [(case, case.database()) for case in cases]
        self.cursor = 0
        self.tracer = LayerTracer()
        self.qid = 0

    def run(self, cases=None, seconds=None, trace=False):
        first = self.cursor
        deadline = None if seconds is None else time.perf_counter() + seconds
        stop = len(self.cases) if cases is None else min(
            len(self.cases), first + cases
        )
        latencies, done, answers = [], [], []
        oracle, cache, pool = totals(), cache_stats(), solver_pool_stats()
        if trace:
            self.tracer.reset()
            self.tracer.install()
        started = time.perf_counter()
        try:
            while self.cursor < stop:
                case, db = self.cases[self.cursor]
                self.cursor += 1
                session = DatabaseSession(db)
                verdicts = []
                answers.append(verdicts)
                for query in case.queries:
                    self.qid += 1
                    self.tracer.set_query(self.qid)
                    begin = time.perf_counter_ns()
                    verdicts.append(answer(session, query))
                    latencies.append(time.perf_counter_ns() - begin)
                    done.append(time.perf_counter() - started)
                    if deadline is not None and time.perf_counter() >= deadline:
                        break
                else:
                    continue
                break
        finally:
            elapsed = time.perf_counter() - started
            self.tracer.remove()
        after, cache_after, pool_after = totals(), cache_stats(), solver_pool_stats()
        return {
            "first_case": first,
            "answers": answers,
            "latency_ns": latencies,
            "done_s": done,
            "elapsed_s": elapsed,
            "exhausted": self.cursor >= len(self.cases),
            "np_calls": after.np_calls - oracle.np_calls,
            "sigma2": after.sigma2_dispatches - oracle.sigma2_dispatches,
            "nodes": after.nodes - oracle.nodes,
            "cache_before": {k: cache[k] for k in ("hits", "misses", "evictions")},
            "cache_after": {
                k: cache_after[k] for k in ("hits", "misses", "evictions", "entries")
            },
            "pool_before": pool,
            "pool_after": pool_after,
            "trace": self.tracer.dump() if trace else None,
        }


def main() -> int:
    cases = [DbCase.from_json(c) for c in json.loads(sys.stdin.readline())]
    worker = Worker(cases)
    reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("cmd") != "run":
            reply({"error": f"unknown command {command!r}"})
            continue
        reply(worker.run(
            cases=command.get("cases"),
            seconds=command.get("seconds"),
            trace=bool(command.get("trace")),
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
