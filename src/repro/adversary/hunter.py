"""The divergence hunter: seeded, budgeted adversarial search.

One hunt runs ``max_cases`` independent *cases*.  Each case is a pure
function of ``(seed, case_index)``:

1. draw a base database from one of the random workload regimes;
2. draw an applicable mutator from the catalogue
   (:mod:`repro.adversary.mutators`) and apply it;
3. run the mutant through the four-engine differential stack
   (brute / oracle / cached / planned) on a seeded query, both literal
   polarities and model existence — the brute enumerator is ground
   truth;
4. for metamorphic mutants, additionally compare the mutant's answers
   against the *original* database under every semantics the mutator's
   preservation contract covers;
5. ask one query through a ``planned`` session and score the
   complexity certificate the certifier attaches;
6. periodically probe budget-edge behavior: the same query under a
   tight deterministic :class:`~repro.runtime.budget.Budget` on two
   engines, recording TIMEOUT asymmetries.

Any disagreement, contract break or certificate violation becomes a
:class:`Divergence`: the witness database is delta-debugged down to a
1-minimal core (:mod:`repro.adversary.minimize`), a markdown diagnosis
report is written (:mod:`repro.adversary.report`), and the minimized
witness is folded into the checked-in regression corpus
(:mod:`repro.adversary.corpus`).

The whole hunt is wall-clock bounded by ``budget_ms`` (checked between
cases), so a nightly CI job can run a large fixed-seed hunt with a hard
time ceiling.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.fragment import fragment_profile
from ..engine import DIFFERENTIAL_ENGINES, differential_stack
from ..errors import ReproError
from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula
from ..obs.accounting import observe
from ..runtime.budget import Budget, BudgetExceeded, budget_scope
from ..semantics import get_semantics
from ..workloads import (
    random_deductive_db,
    random_horn_db,
    random_normal_db,
    random_positive_db,
    random_query_formula,
    random_stratified_db,
)
from .corpus import CorpusEntry, fold_survivors
from .minimize import MinimizationResult, minimize_database
from .mutators import (
    MUTATORS,
    MUTATORS_BY_NAME,
    MutationResult,
    Mutator,
    applicable_semantics,
    boundary_target_met,
)

#: Regimes the hunter draws base databases from.
REGIMES: Tuple[str, ...] = (
    "horn", "positive", "deductive", "stratified", "normal",
)

#: Deterministic probe limits for the budget-edge check (SAT calls and
#: nodes, never wall clock — asymmetries must reproduce bit-for-bit).
EDGE_PROBE_BUDGET = Budget(max_sat_calls=2, max_nodes=48)

#: Atom ceilings above which a semantics is excluded from a case (the
#: brute ground truth enumerates 3^|V| interpretations for PDSM and
#: 2^|V| elsewhere).
_BRUTE_ATOM_CEILING = {"pdsm": 5}
_BRUTE_DEFAULT_CEILING = 10


@dataclass(frozen=True)
class HuntConfig:
    """Parameters of one hunt (all defaults CI-sized).

    Attributes:
        seed: master seed; the entire hunt is a pure function of it.
        max_cases: number of cases to attempt.
        budget_ms: wall-clock ceiling for the whole hunt (``None`` =
            unbounded); checked between cases.
        base_atoms / base_clauses: size of the base databases.
        regimes: base-database regimes to draw from.
        mutators: catalogue names to use (``None`` = all).
        edge_probe_every: run the budget-edge probe on every n-th case
            (``0`` disables it).
        minimize_checks: predicate-call budget per minimization.
        reports_dir: where diagnosis reports are written (``None`` =
            don't write).
        corpus_path: corpus file survivors are folded into (``None`` =
            don't fold).
    """

    seed: int = 0
    max_cases: int = 200
    budget_ms: Optional[float] = 60_000.0
    base_atoms: int = 4
    base_clauses: int = 5
    regimes: Tuple[str, ...] = REGIMES
    mutators: Optional[Tuple[str, ...]] = None
    edge_probe_every: int = 8
    minimize_checks: int = 600
    reports_dir: Optional[str] = None
    corpus_path: Optional[str] = None


@dataclass
class Divergence:
    """One confirmed anomaly, with everything a diagnosis report needs.

    Attributes:
        kind: ``engine-disagreement`` | ``metamorphic-violation`` |
            ``certificate-violation`` | ``boundary-miss``.
        case: the seed line (JSON-ready dict) reproducing the case.
        semantics / method: the entry point that disagreed.
        query: rendered query (formula or literal), if any.
        answers: engine name → rendered answer (the disagreement, side
            by side; for metamorphic violations the two sides are
            ``original`` / ``mutant``).
        db: the *minimized* witness database.
        original_db: the unminimized database the case produced.
        minimization: how the witness was shrunk.
        observations: engine name → oracle-accounting dict for the
            minimized witness (filled for engine disagreements).
        detail: free-form extra context.
        report_path: where the markdown diagnosis landed (if written).
    """

    kind: str
    case: Dict[str, Any]
    semantics: str
    method: str
    query: str
    answers: Dict[str, str]
    db: DisjunctiveDatabase
    original_db: DisjunctiveDatabase
    minimization: Optional[MinimizationResult] = None
    observations: Dict[str, Dict[str, int]] = field(default_factory=dict)
    detail: str = ""
    report_path: Optional[str] = None

    def summary(self) -> str:
        return (
            f"[{self.kind}] {self.semantics}.{self.method} on "
            f"{len(self.db.clauses)}-clause witness "
            f"(case {self.case.get('case')})"
        )


@dataclass
class HuntReport:
    """Aggregate result of one hunt."""

    config: HuntConfig
    cases_run: int = 0
    mutants_checked: int = 0
    mutation_counts: Dict[str, int] = field(default_factory=dict)
    semantics_counts: Dict[str, int] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    certificate_checks: int = 0
    edge_probes: int = 0
    budget_asymmetries: int = 0
    budget_exhausted: bool = False
    elapsed_ms: float = 0.0
    corpus_added: int = 0
    corpus_total: int = 0

    @property
    def clean(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config.seed,
            "max_cases": self.config.max_cases,
            "cases_run": self.cases_run,
            "mutants_checked": self.mutants_checked,
            "mutation_counts": dict(sorted(self.mutation_counts.items())),
            "semantics_counts": dict(sorted(self.semantics_counts.items())),
            "divergences": [d.summary() for d in self.divergences],
            "certificate_checks": self.certificate_checks,
            "edge_probes": self.edge_probes,
            "budget_asymmetries": self.budget_asymmetries,
            "budget_exhausted": self.budget_exhausted,
            "elapsed_ms": round(self.elapsed_ms, 1),
            "corpus_added": self.corpus_added,
            "corpus_total": self.corpus_total,
        }

    def render(self) -> str:
        lines = [
            f"hunt seed={self.config.seed}: {self.cases_run} case(s), "
            f"{self.mutants_checked} mutant(s) checked in "
            f"{self.elapsed_ms / 1000.0:.1f}s"
            + (" [budget exhausted]" if self.budget_exhausted else ""),
            "mutators: "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.mutation_counts.items())
            ),
            f"certificates scored: {self.certificate_checks}; "
            f"edge probes: {self.edge_probes} "
            f"({self.budget_asymmetries} TIMEOUT asymmetries)",
        ]
        if self.corpus_added or self.corpus_total:
            lines.append(
                f"corpus: +{self.corpus_added} "
                f"(total {self.corpus_total})"
            )
        if self.divergences:
            lines.append(f"DIVERGENCES: {len(self.divergences)}")
            for divergence in self.divergences:
                lines.append("  " + divergence.summary())
                if divergence.report_path:
                    lines.append(f"    report: {divergence.report_path}")
        else:
            lines.append("no divergences")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Deterministic case construction
# ----------------------------------------------------------------------
def _case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"hunt:{seed}:{index}")


def build_base(
    regime: str, atoms: int, clauses: int, base_seed: int
) -> DisjunctiveDatabase:
    """The base database of one case (deterministic in ``base_seed``)."""
    if regime == "horn":
        return random_horn_db(atoms, clauses, seed=base_seed)
    if regime == "positive":
        return random_positive_db(atoms, clauses, seed=base_seed)
    if regime == "deductive":
        return random_deductive_db(atoms, clauses, seed=base_seed)
    if regime == "stratified":
        return random_stratified_db(atoms, clauses, seed=base_seed)
    if regime == "normal":
        return random_normal_db(
            atoms, clauses, ic_fraction=0.15, seed=base_seed
        )
    raise ReproError(f"unknown regime {regime!r}")


@dataclass
class Case:
    """One fully-specified hunt case (a pure function of its seed line)."""

    index: int
    regime: str
    base_seed: int
    mutator: Optional[Mutator]
    base: DisjunctiveDatabase
    mutation: Optional[MutationResult]
    semantics: str
    query: Formula
    literal_atom: str
    query_seed: int

    @property
    def mutant(self) -> DisjunctiveDatabase:
        return self.mutation.db if self.mutation is not None else self.base

    def seed_line(self, config: HuntConfig) -> Dict[str, Any]:
        return {
            "seed": config.seed,
            "case": self.index,
            "regime": self.regime,
            "base_seed": self.base_seed,
            "mutator": self.mutator.name if self.mutator else None,
            "semantics": self.semantics,
            "query_seed": self.query_seed,
            "query": str(self.query),
            "literal_atom": self.literal_atom,
        }


def _brute_feasible(name: str, db: DisjunctiveDatabase) -> bool:
    ceiling = _BRUTE_ATOM_CEILING.get(name, _BRUTE_DEFAULT_CEILING)
    return len(db.vocabulary) <= ceiling


#: Over-sampling factor for boundary mutators when the base database
#: sits in (or one edit from) a planner fast-path fragment.
_BOUNDARY_WEIGHT = 3.0


def _near_planner_fast_path(profile) -> bool:
    """Does the cost-based planner have a specialized procedure in play
    for this base?  Horn, HCF-deductive (founded machine / ff closure)
    and stratified-normal (iterated least model) all qualify."""
    return (
        profile.is_horn
        or (profile.negation_free and profile.head_cycle_free)
        or (profile.is_stratified and profile.max_head_width <= 1)
    )


def _mutator_weights(
    profile, candidates: Sequence[Mutator]
) -> List[float]:
    """Per-candidate draw weights: boundary mutators (barely-non-Horn,
    barely-non-HCF, barely-unstratified) are over-sampled whenever the
    base is in planner fast-path territory, so hunts spend their budget
    where the cost model's never-worse-than-default rule and the
    fragment fast paths are actually load-bearing."""
    if not _near_planner_fast_path(profile):
        return [1.0] * len(candidates)
    return [
        _BOUNDARY_WEIGHT if m.kind == "boundary" else 1.0
        for m in candidates
    ]


def build_case(config: HuntConfig, index: int) -> Optional[Case]:
    """Construct case ``index`` of the hunt (``None`` = degenerate draw)."""
    rng = _case_rng(config.seed, index)
    regime = rng.choice(list(config.regimes))
    base_seed = rng.randrange(1 << 30)
    base = build_base(
        regime, config.base_atoms, config.base_clauses, base_seed
    )
    profile = fragment_profile(base)
    catalogue: Sequence[Mutator] = MUTATORS
    if config.mutators is not None:
        catalogue = [MUTATORS_BY_NAME[name] for name in config.mutators]
    candidates = [m for m in catalogue if m.applicable(base, profile)]
    mutator: Optional[Mutator] = None
    mutation: Optional[MutationResult] = None
    if candidates:
        pool = sorted(candidates, key=lambda m: m.name)
        weights = _mutator_weights(profile, pool)
        mutator = rng.choices(pool, weights=weights, k=1)[0]
        mutation = mutator.apply(base, rng)
        if mutation is None:
            mutator = None
    mutant = mutation.db if mutation is not None else base
    names = [
        n for n in applicable_semantics(mutant)
        if _brute_feasible(n, mutant)
    ]
    if not names:
        return None
    # Metamorphic mutants prefer a semantics the contract covers, so
    # the answer-preservation oracle actually gets exercised.
    if mutation is not None and mutation.preserves:
        preferred = [n for n in names if n in mutation.preserves]
        if preferred:
            names = preferred
    semantics = rng.choice(names)
    query_seed = rng.randrange(1 << 30)
    vocabulary = sorted(mutant.vocabulary) or ["a"]
    query = random_query_formula(vocabulary, depth=2, seed=query_seed)
    literal_atom = rng.choice(vocabulary)
    return Case(
        index=index,
        regime=regime,
        base_seed=base_seed,
        mutator=mutator,
        base=base,
        mutation=mutation,
        semantics=semantics,
        query=query,
        literal_atom=literal_atom,
        query_seed=query_seed,
    )


# ----------------------------------------------------------------------
# The individual checks
# ----------------------------------------------------------------------
def _safe(call, *args):
    """``(answer, error)`` of one engine call; never raises."""
    try:
        return call(*args), None
    except Exception as exc:  # pragma: no cover - diagnostic path
        return None, f"{type(exc).__name__}: {exc}"


def _ground_truth_capped(error: Optional[str]) -> bool:
    """True when the brute engine refused an instance above its safety
    bound (:class:`~repro.errors.GroundTruthCapError`) — the instance is
    legal but ground truth is unavailable, so there is nothing to
    compare the other engines against."""
    return error is not None and error.startswith("GroundTruthCapError")


def differential_answers(
    db: DisjunctiveDatabase,
    name: str,
    method: str,
    argument=None,
) -> Dict[str, str]:
    """Rendered per-engine answers for one entry point (report format)."""
    answers: Dict[str, str] = {}
    for engine, instance in zip(
        DIFFERENTIAL_ENGINES, differential_stack(name)
    ):
        if method == "model_set":
            value, error = _safe(instance.model_set, db)
            if value is not None:
                value = " ; ".join(str(m) for m in sorted(value, key=str))
        elif method == "has_model":
            value, error = _safe(instance.has_model, db)
        else:
            value, error = _safe(getattr(instance, method), db, argument)
        answers[engine] = str(value) if error is None else f"<{error}>"
    return answers


def find_engine_disagreement(
    db: DisjunctiveDatabase,
    name: str,
    query: Formula,
    literal_atom: str,
) -> Optional[Tuple[str, Any]]:
    """First four-engine disagreement, as ``(method, argument)``.

    The brute enumerator is ground truth; any engine answering
    differently (or raising where brute does not) is a disagreement.
    """
    literals = [Literal.pos(literal_atom), Literal.neg(literal_atom)]
    stack = differential_stack(name)
    brute = stack[0]
    checks: List[Tuple[str, Any]] = [
        ("model_set", None),
        ("infers", query),
        ("has_model", None),
    ] + [("infers_literal", literal) for literal in literals]
    for method, argument in checks:
        args = () if argument is None else (argument,)
        expected, expected_error = _safe(getattr(brute, method), db, *args)
        if _ground_truth_capped(expected_error):
            continue  # instance legal but too large for brute — skip
        for instance in stack[1:]:
            value, error = _safe(getattr(instance, method), db, *args)
            if (value, error is None) != (expected, expected_error is None):
                return method, argument
    return None


def find_metamorphic_violation(
    original: DisjunctiveDatabase,
    mutation: MutationResult,
    name: str,
    query: Formula,
    literal_atom: str,
    engine: str = "oracle",
) -> Optional[Tuple[str, Any, str, str]]:
    """First broken preservation promise, as
    ``(method, argument, original_answer, mutant_answer)``.

    ``query`` and ``literal_atom`` range over the *original* vocabulary;
    the mutation's ``query_map`` carries them to the mutant side.
    """
    if name not in mutation.preserves:
        return None
    if name not in applicable_semantics(original):
        return None
    if name not in applicable_semantics(mutation.db):
        return None
    instance = get_semantics(name, engine=engine)
    mutant = mutation.db
    checks: List[Tuple[str, Any, Any]] = [
        ("infers", query, mutation.map_query(query)),
        ("has_model", None, None),
    ]
    for literal in (Literal.pos(literal_atom), Literal.neg(literal_atom)):
        mapped = Literal(mutation.map_atom(literal.atom), literal.positive)
        checks.append(("infers_literal", literal, mapped))
    if mutation.preserves_model_set:
        checks.append(("model_set", None, None))
    for method, arg, mapped_arg in checks:
        call = getattr(instance, method)
        original_args = () if arg is None else (arg,)
        mutant_args = () if mapped_arg is None else (mapped_arg,)
        lhs, lhs_error = _safe(call, original, *original_args)
        rhs, rhs_error = _safe(call, mutant, *mutant_args)
        if (lhs, lhs_error is None) != (rhs, rhs_error is None):
            return (
                method,
                arg,
                str(lhs) if lhs_error is None else f"<{lhs_error}>",
                str(rhs) if rhs_error is None else f"<{rhs_error}>",
            )
    return None


def check_certificate(
    db: DisjunctiveDatabase, name: str, literal_atom: str
) -> Optional[str]:
    """Run one literal query through a ``planned`` session and return
    the certifier's complaint, if any (``None`` = envelope respected)."""
    from ..obs.certify import Certifier
    from ..session import DatabaseSession

    session = DatabaseSession(
        db,
        default_semantics=name,
        engine="planned",
        certificates=False,
        certifier=Certifier(strict=False),
    )
    try:
        answer = session.ask_literal(Literal.pos(literal_atom))
    except ReproError:
        return None  # semantics/db mismatch, not a certificate problem
    certificate = answer.complexity
    if certificate is not None and not certificate.ok:
        return certificate.render()
    return None


def probe_budget_edge(
    db: DisjunctiveDatabase,
    name: str,
    query: Formula,
    budget: Budget = EDGE_PROBE_BUDGET,
) -> Dict[str, str]:
    """Run ``infers`` under a tight deterministic budget on the oracle
    and brute engines; returns engine → ``"ok"``/``"timeout:<res>"``.

    Asymmetry (one side TIMEOUT, the other not) is *scored*, not
    failed: the two engines legitimately spend different resources, and
    the hunter's summary surfaces how often the budget edge splits them.
    """
    outcomes: Dict[str, str] = {}
    for engine in ("oracle", "brute"):
        instance = get_semantics(name, engine=engine)
        try:
            with budget_scope(budget):
                instance.infers(db, query)
            outcomes[engine] = "ok"
        except BudgetExceeded as exc:
            outcomes[engine] = f"timeout:{exc.resource}"
        except Exception as exc:
            outcomes[engine] = f"error:{type(exc).__name__}"
    return outcomes


# ----------------------------------------------------------------------
# Witness minimization predicates
# ----------------------------------------------------------------------
def _disagreement_predicate(name: str, method: str, argument):
    def predicate(candidate: DisjunctiveDatabase) -> bool:
        if not candidate.clauses:
            return False
        atom = sorted(candidate.vocabulary)[0] if candidate.vocabulary else "a"
        if method == "infers_literal" and isinstance(argument, Literal):
            arg = argument if argument.atom in candidate.vocabulary else (
                Literal(atom, argument.positive)
            )
        else:
            arg = argument
        stack = differential_stack(name)
        args = () if arg is None else (arg,)
        expected, expected_error = _safe(
            getattr(stack[0], method), candidate, *args
        )
        if _ground_truth_capped(expected_error):
            return False
        for instance in stack[1:]:
            value, error = _safe(
                getattr(instance, method), candidate, *args
            )
            if (value, error is None) != (expected, expected_error is None):
                return True
        return False

    return predicate


def _certificate_predicate(name: str, literal_atom: str):
    def predicate(candidate: DisjunctiveDatabase) -> bool:
        if not candidate.vocabulary:
            return False
        atom = (
            literal_atom
            if literal_atom in candidate.vocabulary
            else sorted(candidate.vocabulary)[0]
        )
        return check_certificate(candidate, name, atom) is not None

    return predicate


# ----------------------------------------------------------------------
# The hunt loop
# ----------------------------------------------------------------------
def run_case(config: HuntConfig, index: int, report: HuntReport) -> None:
    """Run one case, appending any divergence to ``report``."""
    case = build_case(config, index)
    report.cases_run += 1
    if case is None:
        return
    mutant = case.mutant
    name = case.semantics
    report.mutants_checked += 1
    mutator_name = case.mutator.name if case.mutator else "(none)"
    report.mutation_counts[mutator_name] = (
        report.mutation_counts.get(mutator_name, 0) + 1
    )
    report.semantics_counts[name] = (
        report.semantics_counts.get(name, 0) + 1
    )
    seed_line = case.seed_line(config)

    # 1. Boundary mutants must land where they aimed.
    if case.mutation is not None and case.mutation.target is not None:
        before = fragment_profile(case.base)
        after = fragment_profile(mutant)
        if not boundary_target_met(case.mutation.target, before, after):
            report.divergences.append(
                Divergence(
                    kind="boundary-miss",
                    case=seed_line,
                    semantics=name,
                    method="fragment",
                    query=case.mutation.target,
                    answers={
                        "intended": case.mutation.target,
                        "landed": after.fragment,
                    },
                    db=mutant,
                    original_db=mutant,
                    detail=case.mutation.note,
                )
            )
            return

    # 2. Four-engine differential agreement on the mutant.
    disagreement = find_engine_disagreement(
        mutant, name, case.query, case.literal_atom
    )
    if disagreement is not None:
        method, argument = disagreement
        predicate = _disagreement_predicate(name, method, argument)
        minimization = minimize_database(
            mutant, predicate, max_checks=config.minimize_checks,
            seed=config.seed,
        )
        witness = minimization.db
        observations: Dict[str, Dict[str, int]] = {}
        for engine, instance in zip(
            DIFFERENTIAL_ENGINES, differential_stack(name)
        ):
            args = () if argument is None else (argument,)
            with observe() as window:
                _safe(getattr(instance, method), witness, *args)
            observations[engine] = window.as_dict()
        report.divergences.append(
            Divergence(
                kind="engine-disagreement",
                case=seed_line,
                semantics=name,
                method=method,
                query="" if argument is None else str(argument),
                answers=differential_answers(witness, name, method, argument),
                db=witness,
                original_db=mutant,
                minimization=minimization,
                observations=observations,
                detail=(
                    case.mutation.note if case.mutation is not None else ""
                ),
            )
        )
        return

    # 3. Metamorphic answer preservation against the original database.
    if case.mutation is not None and case.mutation.preserves:
        base_vocab = sorted(case.base.vocabulary)
        if base_vocab:
            base_query = random_query_formula(
                base_vocab, depth=2, seed=case.query_seed
            )
            base_atom = base_vocab[case.query_seed % len(base_vocab)]
            violation = find_metamorphic_violation(
                case.base, case.mutation, name, base_query, base_atom
            )
            if violation is not None:
                method, argument, lhs, rhs = violation
                report.divergences.append(
                    Divergence(
                        kind="metamorphic-violation",
                        case=seed_line,
                        semantics=name,
                        method=method,
                        query="" if argument is None else str(argument),
                        answers={"original": lhs, "mutant": rhs},
                        db=case.base,
                        original_db=mutant,
                        detail=(
                            f"mutator `{case.mutation.mutator}` claims to "
                            f"preserve {name}: {case.mutation.note}"
                        ),
                    )
                )
                return

    # 4. Complexity-certificate scoring through the planned session.
    complaint = check_certificate(mutant, name, case.literal_atom)
    report.certificate_checks += 1
    if complaint is not None:
        predicate = _certificate_predicate(name, case.literal_atom)
        try:
            minimization = minimize_database(
                mutant, predicate, max_checks=config.minimize_checks,
                seed=config.seed,
            )
            witness = minimization.db
        except ValueError:  # non-reproducible (cache-order dependent)
            minimization = None
            witness = mutant
        report.divergences.append(
            Divergence(
                kind="certificate-violation",
                case=seed_line,
                semantics=name,
                method="infers_literal",
                query=case.literal_atom,
                answers={"certifier": complaint},
                db=witness,
                original_db=mutant,
                minimization=minimization,
            )
        )
        return

    # 5. Budget-edge probe (sampled).
    if config.edge_probe_every and index % config.edge_probe_every == 0:
        outcomes = probe_budget_edge(mutant, name, case.query)
        report.edge_probes += 1
        statuses = {o.split(":")[0] for o in outcomes.values()}
        if "timeout" in statuses and len(statuses) > 1:
            report.budget_asymmetries += 1


def hunt(config: HuntConfig) -> HuntReport:
    """Run a full hunt under ``config`` (see the module docstring)."""
    report = HuntReport(config=config)
    start = time.monotonic()
    survivors: List[CorpusEntry] = []
    for index in range(config.max_cases):
        elapsed_ms = (time.monotonic() - start) * 1000.0
        if config.budget_ms is not None and elapsed_ms > config.budget_ms:
            report.budget_exhausted = True
            break
        before = len(report.divergences)
        run_case(config, index, report)
        for divergence in report.divergences[before:]:
            if config.reports_dir is not None:
                from .report import write_diagnosis_report

                divergence.report_path = str(
                    write_diagnosis_report(divergence, config.reports_dir)
                )
            survivors.append(
                CorpusEntry(
                    db=divergence.db,
                    kind=divergence.kind,
                    semantics=divergence.semantics,
                    method=divergence.method,
                    origin=str(divergence.case),
                    note=divergence.detail,
                )
            )
    report.elapsed_ms = (time.monotonic() - start) * 1000.0
    if config.corpus_path is not None and survivors:
        added, total = fold_survivors(config.corpus_path, survivors)
        report.corpus_added = added
        report.corpus_total = total
    return report
