"""Command-line interface: ``repro-ddb`` / ``python -m repro``.

Subcommands:

* ``models FILE --semantics S`` — print the models a semantics selects;
* ``infer FILE --query F --semantics S`` — decide formula inference;
* ``solve FILE`` — classical satisfiability / one model;
* ``stratify FILE`` — show the canonical stratification;
* ``closure FILE`` — the GCWA / WGCWA / EGCWA closure objects;
* ``ground FILE`` — ground a non-ground (variable) program;
* ``tables [--evidence]`` — regenerate the paper's Tables 1 and 2;
* ``cache [FILE]`` — exercise the memoizing engine and print the
  process-wide cache statistics (hits/misses/evictions, entries by kind);
* ``query FILE --query F --timeout-ms N`` — budgeted inference through
  the resilient engine: a structured outcome (ok / degraded / timeout)
  instead of an unbounded run; exit code 4 signals a timeout/failure;
* ``faults [FILE]`` — deterministic fault-injection demo: run a query
  under a seeded :class:`~repro.runtime.faults.FaultPlan` and print the
  degradation path taken;
* ``serve`` — run the multi-tenant async query daemon: per-tenant
  sessions over HTTP with admission control, cross-request batching,
  QoS budget headers, ``/metrics`` and ``/trace`` endpoints
  (see ``docs/serving_guide.md``);
* ``trace FILE --query F`` — run queries under a recording
  :class:`~repro.obs.trace.Tracer` and print the span tree (or JSON
  lines with ``--jsonl``), the per-query complexity certificates, and
  optionally the full metrics exposition (``--metrics``).

``FILE`` is a database in the surface syntax (``-`` for stdin).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ReproError
from .logic.parser import parse_database, parse_formula
from .semantics import ENGINES, get_semantics, resolve_name


def _read_database(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    return parse_database(text)


def _semantics_kwargs(args) -> dict:
    kwargs = {"engine": args.engine}
    if getattr(args, "p", None) is not None:
        kwargs["p"] = [a for a in args.p.split(",") if a]
    if getattr(args, "z", None):
        kwargs["z"] = [a for a in args.z.split(",") if a]
    # Partition kwargs only exist on partitioned semantics.
    name = resolve_name(args.semantics)
    if name not in ("ccwa", "ecwa", "icwa"):
        kwargs.pop("p", None)
        kwargs.pop("z", None)
    return kwargs


def _cmd_models(args) -> int:
    db = _read_database(args.file)
    semantics = get_semantics(args.semantics, **_semantics_kwargs(args))
    models = sorted(semantics.model_set(db), key=str)
    label = resolve_name(args.semantics).upper()
    print(f"{label} selects {len(models)} model(s):")
    for model in models:
        print(" ", model)
    return 0


def _cmd_infer(args) -> int:
    db = _read_database(args.file)
    formula = parse_formula(args.query)
    semantics = get_semantics(args.semantics, **_semantics_kwargs(args))
    verdict = semantics.infers(db, formula)
    label = resolve_name(args.semantics).upper()
    print(f"{label}(DB) |= {formula}  :  {verdict}")
    return 0 if verdict else 1


def _cmd_solve(args) -> int:
    from .sat.solver import find_model

    db = _read_database(args.file)
    model = find_model(db)
    if model is None:
        print("UNSATISFIABLE")
        return 1
    print("SATISFIABLE")
    print("model:", model)
    return 0


def _cmd_stratify(args) -> int:
    from .engine.cache import stratification_for

    db = _read_database(args.file)
    stratification = stratification_for(db)
    if stratification is None:
        print("NOT STRATIFIED (dependency cycle through negation)")
        return 1
    for index, stratum in enumerate(stratification.strata, start=1):
        print(f"S{index}: {{{', '.join(sorted(stratum))}}}")
    return 0


def _cmd_repl(args) -> int:
    from .repl import run_repl

    db = _read_database(args.file) if args.file else None
    return run_repl(db=db, semantics=args.semantics)


def _cmd_closure(args) -> int:
    from .semantics.state import (
        egcwa_closure_clauses,
        gcwa_closure_literals,
        wgcwa_closure_literals,
    )

    db = _read_database(args.file)
    if db.has_negation:
        print("error: closures are defined for deductive databases",
              file=sys.stderr)
        return 2
    wgcwa = wgcwa_closure_literals(db)
    gcwa = gcwa_closure_literals(db)
    print("WGCWA/DDR adds:",
          ", ".join(f"not {a}" for a in sorted(wgcwa)) or "(nothing)")
    print("GCWA adds:     ",
          ", ".join(f"not {a}" for a in sorted(gcwa)) or "(nothing)")
    egcwa = egcwa_closure_clauses(db, max_size=args.max_size)
    rendered = [
        ":- " + ", ".join(sorted(body)) + "."
        for body in sorted(egcwa, key=lambda b: (len(b), sorted(b)))
    ]
    print("EGCWA adds:    ", "  ".join(rendered) or "(nothing)")
    return 0


def _cmd_ground(args) -> int:
    from .ground import ground_program

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as handle:
            text = handle.read()
    db = ground_program(text, extra_constants=args.constants or ())
    print(db)
    return 0


def _cmd_cache(args) -> int:
    from .engine.cache import ENGINE_CACHE

    if args.clear:
        ENGINE_CACHE.clear()
    if args.limit is not None:
        ENGINE_CACHE.configure(args.limit)
    if args.file:
        db = _read_database(args.file)
        names = [n.strip() for n in args.semantics.split(",") if n.strip()]
        for _ in range(max(1, args.repeat)):
            for name in names:
                semantics = get_semantics(name, engine="cached")
                semantics.has_model(db)
                semantics.model_set(db)
                if args.query:
                    semantics.infers(db, parse_formula(args.query))
    stats = ENGINE_CACHE.stats()
    print(f"entries:   {stats['entries']} / {stats['maxsize']}")
    print(
        f"lookups:   {stats['hits'] + stats['misses']}  "
        f"(hits {stats['hits']}, misses {stats['misses']}, "
        f"hit rate {stats['hit_rate']:.1%})"
    )
    print(f"evictions: {stats['evictions']}")
    kinds = sorted(
        set(stats["entries_by_kind"])
        | set(stats["hits_by_kind"])
        | set(stats["misses_by_kind"])
        | set(stats["evictions_by_kind"])
    )
    if kinds:
        print("by kind:")
    for kind in kinds:
        print(
            f"  {kind:<20} entries={stats['entries_by_kind'].get(kind, 0):<5} "
            f"hits={stats['hits_by_kind'].get(kind, 0):<5} "
            f"misses={stats['misses_by_kind'].get(kind, 0):<5} "
            f"evictions={stats['evictions_by_kind'].get(kind, 0)}"
        )
    from .sat.incremental import solver_pool_stats

    pool = solver_pool_stats()
    print("solver pool:")
    print(
        f"  parked:    {pool['solvers_pooled']} / {pool['pool_maxsize']}"
    )
    print(
        f"  checkouts: {pool['solvers_created'] + pool['solver_reuses']}  "
        f"(built {pool['solvers_created']}, "
        f"reused {pool['solver_reuses']}, "
        f"reuse rate {pool['reuse_rate']:.1%})"
    )
    print(
        f"  retained learned clauses: {pool['clauses_retained']}  "
        f"(discarded {pool['solvers_discarded']}, "
        f"evicted {pool['solver_evictions']})"
    )
    return 0


#: Exit code of ``query``/``faults`` when no engine produced an answer
#: (budget tripped or every retry faulted) — distinct from the verdict
#: codes 0/1 and the usage-error code 2.
EXIT_NO_ANSWER = 4


def _cmd_query(args) -> int:
    from .runtime import Budget, runtime_stats

    db = _read_database(args.file)
    formula = parse_formula(args.query)
    budget = Budget(
        wall_ms=args.timeout_ms,
        max_sat_calls=args.max_sat_calls,
        max_nodes=args.max_nodes,
    )
    kwargs = _semantics_kwargs(args)
    kwargs["budget"] = budget
    semantics = get_semantics(args.semantics, **kwargs)
    method = "infers_brave" if args.mode == "brave" else "infers"
    outcome = semantics.run(method, db, formula)
    label = resolve_name(args.semantics).upper()
    print(f"{label}(DB) |= {formula}  [budget: {budget.render()}]")
    print(outcome.render())
    if args.stats:
        print("runtime counters:")
        for key, value in runtime_stats().items():
            print(f"  {key}: {value}")
    if not outcome.ok:
        return EXIT_NO_ANSWER
    return 0 if outcome.value else 1


#: The built-in database the ``faults`` demo queries when no file is
#: given: a disjunctive fact plus a dependent rule, small enough that
#: every engine answers instantly and the printout stays readable.
FAULTS_DEMO_DB = "a | b. c :- a."


def _cmd_faults(args) -> int:
    from .engine.resilient import RetryPolicy
    from .runtime import Budget, FaultPlan, fault_plan, runtime_stats

    if args.file:
        db = _read_database(args.file)
    else:
        db = parse_database(FAULTS_DEMO_DB)
        print(f"(no FILE given; using the demo database {FAULTS_DEMO_DB!r})")
    formula = parse_formula(args.query)
    plan = FaultPlan(
        seed=args.seed,
        sat_fault_rate=args.sat_fault_rate,
        latency_ms=args.latency_ms,
        max_sat_faults=args.max_sat_faults,
    )
    kwargs = _semantics_kwargs(args)
    kwargs["budget"] = Budget(wall_ms=args.timeout_ms)
    kwargs["retry"] = RetryPolicy(
        max_retries=args.retries, backoff_ms=args.backoff_ms
    )
    semantics = get_semantics(args.semantics, **kwargs)
    label = resolve_name(args.semantics).upper()
    print(f"querying {label}(DB) |= {formula} under {plan!r}")
    with fault_plan(plan):
        outcome = semantics.run("infers", db, formula)
    print(outcome.render())
    print("fault plan counters:")
    for key, value in plan.stats().items():
        print(f"  {key}: {value}")
    print("runtime counters:")
    for key, value in runtime_stats().items():
        print(f"  {key}: {value}")
    return 0 if outcome.ok else EXIT_NO_ANSWER


def _cmd_trace(args) -> int:
    from .obs.trace import Tracer, use_tracer
    from .session import DatabaseSession

    db = _read_database(args.file)
    tracer = Tracer()
    session = DatabaseSession(
        db, default_semantics=args.semantics, engine=args.engine
    )
    answers = []
    with use_tracer(tracer):
        for _ in range(max(1, args.repeat)):
            session.has_model()
            for query in args.query or ():
                answers.append(session.ask(query))
            for literal in args.literal or ():
                answers.append(session.ask_literal(literal))
    if args.jsonl is not None:
        payload = tracer.export_jsonl()
        if args.jsonl == "-":
            sys.stdout.write(payload)
        else:
            with open(args.jsonl, "w") as handle:
                handle.write(payload)
            print(
                f"wrote {len(tracer.finished_roots())} trace root(s) "
                f"to {args.jsonl}"
            )
    else:
        print(tracer.render_tree())
    for answer in answers:
        print(answer.render())
        if answer.complexity is not None:
            print(f"  certificate: {answer.complexity.render()}")
    print(
        f"certificates: {session.certificates_checked} checked, "
        f"{session.certificate_violations} violated"
    )
    if args.metrics:
        from .obs.metrics import METRICS

        print(METRICS.expose(), end="")
    return 0


def _cmd_tables(args) -> int:
    from .complexity.classes import Regime
    from .tables import render_table

    regimes = {
        "1": [Regime.POSITIVE],
        "2": [Regime.WITH_ICS],
        "both": [Regime.POSITIVE, Regime.WITH_ICS],
    }[args.regime]
    for regime in regimes:
        print(
            render_table(
                regime,
                with_evidence=args.evidence,
                instances=args.instances,
                atoms=args.atoms,
            )
        )
        print()
    return 0


def _cmd_analyze(args) -> int:
    import json as _json

    from .analysis import FragmentPlanner, fragment_profile
    from .complexity import ROW_ORDER
    from .semantics import get_semantics

    db = _read_database(args.file)
    profile = fragment_profile(db)
    planner = FragmentPlanner()
    plans = {
        name: planner.plan(profile, get_semantics(name), "infers")
        for name in ROW_ORDER
    }
    if args.json:
        print(
            _json.dumps(
                {
                    "profile": profile.as_dict(),
                    "plans": {
                        name: plan.as_dict()
                        for name, plan in plans.items()
                    },
                },
                indent=2,
                ensure_ascii=False,
            )
        )
        return 0
    print(profile.render())
    print()
    print("planner dispatch (formula inference):")
    for name, plan in plans.items():
        print(f"  {name:6s} -> {plan.procedure:16s} [{plan.claim}]")
    return 0


def _cmd_plan(args) -> int:
    import json as _json

    from .analysis import fragment_profile
    from .complexity import ROW_ORDER
    from .engine.cache import query_plan_for
    from .semantics import get_semantics, resolve_name

    db = _read_database(args.file)
    profile = fragment_profile(db)
    names = (
        list(ROW_ORDER)
        if args.all_semantics
        else [resolve_name(args.semantics)]
    )
    plans = {
        name: query_plan_for(db, get_semantics(name), args.method)
        for name in names
    }
    if args.json:
        print(
            _json.dumps(
                {
                    "profile": profile.as_dict(),
                    "method": args.method,
                    "plans": {
                        name: plan.as_dict()
                        for name, plan in plans.items()
                    },
                },
                indent=2,
                ensure_ascii=False,
            )
        )
        return 0
    print(f"fragment: {profile.fragment}  ({profile.atoms} atoms, "
          f"{profile.clauses} clauses)")
    for name, plan in plans.items():
        print()
        print(f"{name}/{args.method}: chosen {plan.procedure} "
              f"[{plan.claim}]")
        print(f"  {plan.reason}")
        header = (
            f"  {'procedure':18s} {'np':>8s} {'sigma2':>8s} "
            f"{'nodes':>10s} {'scalar':>10s}"
        )
        print(header)
        for candidate in plan.candidates:
            marker = "*" if candidate.procedure == plan.procedure else " "
            print(
                f" {marker}{candidate.procedure:18s} "
                f"{candidate.np_calls:8.1f} "
                f"{candidate.sigma2_dispatches:8.1f} "
                f"{candidate.nodes:10.1f} "
                f"{candidate.scalar:10.2f}  {candidate.reason}"
            )
    return 0


def _cmd_check(args) -> int:
    from .analysis.static.checker import main as check_main

    return check_main(args)


def _cmd_serve(args) -> int:
    from .runtime import Budget
    from .serve import QueryService, run_server
    from .serve.server import DEFAULT_TENANT

    default_budget = None
    if (
        args.default_timeout_ms is not None
        or args.default_max_sat_calls is not None
    ):
        default_budget = Budget(
            wall_ms=args.default_timeout_ms,
            max_sat_calls=args.default_max_sat_calls,
        )
    service = QueryService(
        engine=args.engine,
        max_queue=args.max_queue,
        workers=args.workers,
        default_budget=default_budget,
    )
    for path in args.preload or ():
        db = _read_database(path)
        info = service.register_database(DEFAULT_TENANT, str(db))
        print(f"preloaded {path} as db {info['db']}")
    return run_server(
        service=service,
        host=args.host,
        port=args.port,
        tracing=not args.no_trace,
    )


def _cmd_hunt(args) -> int:
    import json as _json

    from .adversary import DEFAULT_CORPUS_PATH, HuntConfig, hunt

    corpus_path = args.corpus or DEFAULT_CORPUS_PATH
    config = HuntConfig(
        seed=args.seed,
        max_cases=args.max_cases,
        budget_ms=args.budget_ms,
        base_atoms=args.atoms,
        base_clauses=args.clauses,
        mutators=tuple(args.mutators.split(",")) if args.mutators else None,
        reports_dir=args.reports_dir,
        corpus_path=corpus_path if args.fold else None,
    )
    report = hunt(config)
    if args.format == "json":
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for every repro-ddb subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-ddb",
        description=(
            "Disjunctive database semantics — reproduction of Eiter & "
            "Gottlob, PODS 1993"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_semantics_options(sub):
        sub.add_argument(
            "--semantics",
            "-s",
            default="egcwa",
            help="semantics name or alias (e.g. gcwa, wgcwa, circ, stable)",
        )
        sub.add_argument(
            "--engine",
            choices=ENGINES,
            default="oracle",
            help=(
                "decision engine ('oracle' runs the SAT-oracle procedures; "
                "'brute' enumerates models; "
                "'cached' memoizes oracle results; "
                "'resilient' adds retry/fallback degradation; "
                "'planned' dispatches Horn/head-cycle-free fragments "
                "to cheaper sound procedures)"
            ),
        )
        sub.add_argument(
            "--p", help="comma-separated minimized atoms (CCWA/ECWA/ICWA)"
        )
        sub.add_argument(
            "--z", help="comma-separated floating atoms (CCWA/ECWA/ICWA)"
        )

    models_cmd = commands.add_parser(
        "models", help="print the models a semantics selects"
    )
    models_cmd.add_argument("file", help="database file ('-' for stdin)")
    add_semantics_options(models_cmd)
    models_cmd.set_defaults(handler=_cmd_models)

    infer_cmd = commands.add_parser("infer", help="decide inference")
    infer_cmd.add_argument("file", help="database file ('-' for stdin)")
    infer_cmd.add_argument(
        "--query", "-q", required=True, help="formula to infer"
    )
    add_semantics_options(infer_cmd)
    infer_cmd.set_defaults(handler=_cmd_infer)

    solve_cmd = commands.add_parser(
        "solve", help="classical satisfiability of the database"
    )
    solve_cmd.add_argument("file", help="database file ('-' for stdin)")
    solve_cmd.set_defaults(handler=_cmd_solve)

    stratify_cmd = commands.add_parser(
        "stratify", help="compute the canonical stratification"
    )
    stratify_cmd.add_argument("file", help="database file ('-' for stdin)")
    stratify_cmd.set_defaults(handler=_cmd_stratify)

    repl_cmd = commands.add_parser(
        "repl", help="interactive query session"
    )
    repl_cmd.add_argument(
        "file", nargs="?", help="database file to preload"
    )
    repl_cmd.add_argument("--semantics", "-s", default="egcwa")
    repl_cmd.set_defaults(handler=_cmd_repl)

    closure_cmd = commands.add_parser(
        "closure", help="show the GCWA / WGCWA / EGCWA closure objects"
    )
    closure_cmd.add_argument("file", help="database file ('-' for stdin)")
    closure_cmd.add_argument(
        "--max-size", type=int, default=2,
        help="maximum EGCWA closure-clause body size",
    )
    closure_cmd.set_defaults(handler=_cmd_closure)

    ground_cmd = commands.add_parser(
        "ground", help="ground a non-ground (variable) program"
    )
    ground_cmd.add_argument("file", help="program file ('-' for stdin)")
    ground_cmd.add_argument(
        "--constants",
        nargs="*",
        help="extra constants for the active domain",
    )
    ground_cmd.set_defaults(handler=_cmd_ground)

    tables_cmd = commands.add_parser(
        "tables", help="regenerate the paper's Tables 1 and 2"
    )
    tables_cmd.add_argument(
        "--regime", choices=("1", "2", "both"), default="both"
    )
    tables_cmd.add_argument(
        "--evidence",
        action="store_true",
        help="re-measure the evidence for every cell (slow)",
    )
    tables_cmd.add_argument("--instances", type=int, default=3)
    tables_cmd.add_argument("--atoms", type=int, default=4)
    tables_cmd.set_defaults(handler=_cmd_tables)

    cache_cmd = commands.add_parser(
        "cache",
        help="exercise the memoizing engine and print cache statistics",
    )
    cache_cmd.add_argument(
        "file", nargs="?",
        help="database to query repeatedly through the cached engine",
    )
    cache_cmd.add_argument(
        "--semantics", "-s", default="egcwa",
        help="comma-separated semantics names to exercise",
    )
    cache_cmd.add_argument(
        "--query", "-q", help="formula to infer on each pass"
    )
    cache_cmd.add_argument(
        "--repeat", type=int, default=2,
        help="number of identical passes (default 2: cold + warm)",
    )
    cache_cmd.add_argument(
        "--limit", type=int, default=None,
        help="re-bound the LRU entry limit before running",
    )
    cache_cmd.add_argument(
        "--clear", action="store_true",
        help="clear the cache (and its counters) first",
    )
    cache_cmd.set_defaults(handler=_cmd_cache)

    query_cmd = commands.add_parser(
        "query",
        help=(
            "budgeted inference through the resilient engine "
            "(structured outcome instead of an unbounded run)"
        ),
    )
    query_cmd.add_argument("file", help="database file ('-' for stdin)")
    query_cmd.add_argument(
        "--query", "-q", required=True, help="formula to infer"
    )
    query_cmd.add_argument(
        "--semantics", "-s", default="egcwa",
        help="semantics name or alias",
    )
    query_cmd.add_argument(
        "--mode", choices=("cautious", "brave"), default="cautious"
    )
    query_cmd.add_argument(
        "--timeout-ms", type=float, default=None,
        help="wall-clock budget in milliseconds",
    )
    query_cmd.add_argument(
        "--max-sat-calls", type=int, default=None,
        help="NP-oracle (SAT solve) call budget",
    )
    query_cmd.add_argument(
        "--max-nodes", type=int, default=None,
        help="enumeration/search node budget",
    )
    query_cmd.add_argument(
        "--p", help="comma-separated minimized atoms (CCWA/ECWA/ICWA)"
    )
    query_cmd.add_argument(
        "--z", help="comma-separated floating atoms (CCWA/ECWA/ICWA)"
    )
    query_cmd.add_argument(
        "--stats", action="store_true",
        help="also print the process-wide runtime counters",
    )
    query_cmd.set_defaults(handler=_cmd_query, engine="resilient")

    faults_cmd = commands.add_parser(
        "faults",
        help=(
            "deterministic fault-injection demo through the resilient "
            "engine"
        ),
    )
    faults_cmd.add_argument(
        "file", nargs="?",
        help="database file (default: a built-in demo database)",
    )
    faults_cmd.add_argument(
        "--query", "-q", default="~a | ~b", help="formula to infer"
    )
    faults_cmd.add_argument(
        "--semantics", "-s", default="egcwa",
        help="semantics name or alias",
    )
    faults_cmd.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed, same degradation path)",
    )
    faults_cmd.add_argument(
        "--sat-fault-rate", type=float, default=0.5,
        help="probability a SAT call raises a transient fault",
    )
    faults_cmd.add_argument(
        "--latency-ms", type=float, default=0.0,
        help="injected latency per SAT call",
    )
    faults_cmd.add_argument(
        "--max-sat-faults", type=int, default=None,
        help="cap on injected SAT faults ('fail N times, then succeed')",
    )
    faults_cmd.add_argument(
        "--retries", type=int, default=2,
        help="retry attempts before degrading to the fallback engine",
    )
    faults_cmd.add_argument(
        "--backoff-ms", type=float, default=1.0,
        help="first-retry backoff delay",
    )
    faults_cmd.add_argument(
        "--timeout-ms", type=float, default=None,
        help="wall-clock budget in milliseconds",
    )
    faults_cmd.add_argument(
        "--p", help="comma-separated minimized atoms (CCWA/ECWA/ICWA)"
    )
    faults_cmd.add_argument(
        "--z", help="comma-separated floating atoms (CCWA/ECWA/ICWA)"
    )
    faults_cmd.set_defaults(handler=_cmd_faults, engine="resilient")

    trace_cmd = commands.add_parser(
        "trace",
        help=(
            "run queries under a recording tracer and print the span "
            "tree with complexity certificates"
        ),
    )
    trace_cmd.add_argument("file", help="database file ('-' for stdin)")
    trace_cmd.add_argument(
        "--query", "-q", action="append",
        help="formula to infer (repeatable)",
    )
    trace_cmd.add_argument(
        "--literal", "-l", action="append",
        help="literal to infer (repeatable, e.g. 'a' or '~a')",
    )
    add_semantics_options(trace_cmd)
    trace_cmd.add_argument(
        "--repeat", type=int, default=1,
        help="identical passes (2+ shows cache-warm spans)",
    )
    trace_cmd.add_argument(
        "--jsonl", nargs="?", const="-", default=None, metavar="PATH",
        help="emit spans as JSON lines to PATH (default: stdout) "
             "instead of the human-readable tree",
    )
    trace_cmd.add_argument(
        "--metrics", action="store_true",
        help="also print the Prometheus-style metrics exposition",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    analyze_cmd = commands.add_parser(
        "analyze",
        help=(
            "fragment-analyze a database and show how the planner "
            "would dispatch each semantics"
        ),
    )
    analyze_cmd.add_argument("file", help="database file ('-' for stdin)")
    analyze_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable report (the CI artifact format)",
    )
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    plan_cmd = commands.add_parser(
        "plan",
        help=(
            "show the cost-based planner's per-candidate estimate table "
            "and chosen procedure for a database"
        ),
    )
    plan_cmd.add_argument("file", help="database file ('-' for stdin)")
    plan_cmd.add_argument(
        "--semantics", "-s", default="egcwa",
        help="semantics name or alias (ignored with --all-semantics)",
    )
    plan_cmd.add_argument(
        "--all-semantics", action="store_true",
        help="plan every table-row semantics",
    )
    plan_cmd.add_argument(
        "--method",
        choices=(
            "infers", "infers_literal", "infers_brave", "has_model",
            "model_set",
        ),
        default="infers",
        help="entry point to plan for",
    )
    plan_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable report (includes the full cost table)",
    )
    plan_cmd.set_defaults(handler=_cmd_plan)

    check_cmd = commands.add_parser(
        "check",
        aliases=["lint"],
        help=(
            "static analysis of the source tree: complexity-accounting "
            "conventions (RPR001-RPR006), call-graph complexity "
            "envelopes (RPR101-RPR103) and lock discipline "
            "(RPR201-RPR204)"
        ),
    )
    check_cmd.add_argument(
        "paths", nargs="*", type=Path,
        help="extra files or directories analyzed alongside the repro "
        "package (a directory sweep, e.g. tests/ for the nightly run, "
        "joins the call-graph passes only)",
    )
    check_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact format)",
    )
    check_cmd.add_argument(
        "--rules", action="store_true",
        help="list the rule catalog and exit",
    )
    check_cmd.add_argument(
        "--warnings", action="store_true",
        help="also print RPR100 dynamic-dispatch warnings (text mode)",
    )
    check_cmd.add_argument(
        "--baseline", type=Path, metavar="JSON",
        help="gate on findings NOT in this baseline",
    )
    check_cmd.add_argument(
        "--write-baseline", type=Path, metavar="JSON",
        help="record the current findings as a baseline and exit 0",
    )
    check_cmd.add_argument(
        "--diff", action="store_true",
        help="only report findings in files changed vs. git HEAD "
        "(the graph is still whole-program)",
    )
    check_cmd.set_defaults(handler=_cmd_check)

    serve_cmd = commands.add_parser(
        "serve",
        help=(
            "run the multi-tenant async query daemon (HTTP JSON API, "
            "/metrics exposition, /trace drain)"
        ),
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8035,
        help="bind port (0 picks an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--engine",
        choices=("cached", "planned", "resilient", "oracle"),
        default="cached",
        help="session engine backing every tenant session",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=4,
        help="evaluation threads (= maximum concurrent batches)",
    )
    serve_cmd.add_argument(
        "--max-queue", type=int, default=64,
        help="per-tenant admission bound (queued + running queries)",
    )
    serve_cmd.add_argument(
        "--default-timeout-ms", type=float, default=None,
        help="wall-clock budget applied when a request sets no QoS header",
    )
    serve_cmd.add_argument(
        "--default-max-sat-calls", type=int, default=None,
        help="SAT-call budget applied when a request sets no QoS header",
    )
    serve_cmd.add_argument(
        "--preload", action="append", metavar="FILE",
        help="database file to register for the default tenant (repeatable)",
    )
    serve_cmd.add_argument(
        "--no-trace", action="store_true",
        help="do not install the recording tracer behind /trace",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    hunt_cmd = commands.add_parser(
        "hunt",
        help=(
            "adversarial divergence hunt: mutate random databases and "
            "cross-check the four-engine differential stack"
        ),
    )
    hunt_cmd.add_argument(
        "--seed", type=int, default=0,
        help="master seed (the hunt is a pure function of it)",
    )
    hunt_cmd.add_argument(
        "--max-cases", type=int, default=200,
        help="number of mutated databases to try",
    )
    hunt_cmd.add_argument(
        "--budget-ms", type=float, default=60000.0,
        help="wall-clock ceiling for the whole hunt (ms)",
    )
    hunt_cmd.add_argument(
        "--atoms", type=int, default=4, help="base-database vocabulary size"
    )
    hunt_cmd.add_argument(
        "--clauses", type=int, default=5, help="base-database clause count"
    )
    hunt_cmd.add_argument(
        "--mutators",
        help="comma-separated mutator names (default: the full catalogue)",
    )
    hunt_cmd.add_argument(
        "--reports-dir", default="reports",
        help="directory for markdown diagnosis reports",
    )
    hunt_cmd.add_argument(
        "--corpus",
        default=None,
        help=(
            "corpus file to fold survivors into "
            "(default: tests/data/adversarial_corpus.json)"
        ),
    )
    hunt_cmd.add_argument(
        "--fold", action="store_true",
        help="fold minimized survivors into the regression corpus",
    )
    hunt_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    hunt_cmd.set_defaults(handler=_cmd_hunt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, FileNotFoundError, ValueError) as error:
        # ValueError: a constructor rejected a flag value (a negative
        # budget, a rate outside [0, 1], zero workers).  Exit 1 would
        # read as a negative verdict.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
