"""The cost-based fragment planner and the ``"planned"`` engine.

:class:`FragmentPlanner` maps one ``(semantics, entry point)`` query
over a profiled database to the cheapest *sound* procedure, chosen by
the calibrated cost model (:mod:`repro.analysis.cost`): every candidate
gets a predicted NP-call / Σ₂ᵖ-dispatch / node estimate from the
:class:`~repro.analysis.fragment.FragmentProfile`, the smallest weighted
scalar wins, and a specialized procedure is never selected when its
estimate does not beat the default engine's.

Candidate procedures:

* ``horn-least-model`` — on Horn databases every closed-world semantics
  in :data:`HORN_COLLAPSE` selects exactly the least model of the
  definite part (or nothing, when an integrity clause fails), so every
  entry point is answered from the unit-propagation fixpoint — class P,
  **zero SAT calls**;
* ``stratified-perfect`` — on stratified *normal* (head width ≤ 1)
  databases PERF/ICWA/DSM select exactly the iterated per-stratum least
  model (the unique perfect = unique stable model) — class P, **zero
  SAT calls**;
* ``hcf-founded`` — on head-cycle-free deductive databases one
  minimal-witness query with the polynomial foundedness check
  (:class:`~repro.analysis.procedures.HeadCycleFreeSolver`) replaces the
  Σ₂ᵖ primitive: direct entailment for the MM-reducible semantics, and
  the *single-query* literal reduction for the GCWA family — plain SAT
  calls, **zero Σ₂ᵖ dispatches**;
* ``hcf-closure`` — GCWA-family formula inference as classical
  entailment from the founded ``ff(DB)`` closure, which is memoized per
  database (:func:`~repro.analysis.procedures.hcf_free_atoms`), so
  repeated queries pay one SAT call each;
* ``kernel-bitset`` — on small-vocabulary databases the MM-/ff-reducible
  semantics are answered by the mask-packed brute engine
  (:mod:`repro.kernel`): **zero oracle calls**, pure enumeration over
  packed interpretations, decomposed per connected component, with the
  answers memoized under the cached engine's keys (answers are
  engine-independent).  The cost model's 26-bit sweep cap prices the
  kernel out long before ``2^|V|`` could hurt;
* ``default`` — everything else delegates to the wrapped oracle
  procedures *behind the process-wide memo cache* (the planner's
  fallback is never slower than ``engine="cached"`` by more than the
  planning lookup itself).

:class:`PlannedSemantics` is the engine façade behind
``get_semantics(name, engine="planned")``: it profiles the database
(memoized), looks up or computes the :class:`QueryPlan` (memoized per
``(db, semantics, params, method)`` in the engine cache), records it on
:attr:`~PlannedSemantics.last_plan` (the session copies it onto the
:class:`~repro.session.Answer`, hands it to the certifier — which
*tightens* the envelope to the fragment's class — and records
predicted-vs-actual span attributes and metrics), and executes the
planned procedure.  Fast-path answers are memoized under the same keys
the ``cached`` engine uses — the answers are engine-independent, so the
planner composes with, rather than competes against, the memo layer.

Soundness notes (each backed by the 6-engine differential corpus):

* Horn collapse: on a consistent Horn database the least model ``M`` is
  the unique minimal model; GCWA/EGCWA/CCWA/ECWA (default partition;
  CIRC is ECWA under an alias), DDR, PWS, ICWA (default partition —
  Horn databases are trivially stratified), PERF (Horn + no ICs), DSM
  and CWA all select exactly ``{M}``; on an inconsistent one all select ``∅``.  PDSM's
  three-valued states and the supported-model semantics (``a :- a.``
  has the non-minimal supported model ``{a}``) do *not* collapse and
  stay on ``default``.
* Stratified-normal collapse: a stratified normal program has a unique
  perfect model, which is its unique stable model; PERF, ICWA and DSM
  select exactly it (GCWA-family semantics read negative bodies
  classically and are excluded).  Integrity clauses are checked against
  the model; a violated one empties the selection.
* HCF reduction: with the default partition and no negation,
  EGCWA/ECWA/DSM/PERF/ICWA inference is minimal-model entailment
  (``EGCWA(DB) = MM(DB)``; stable = minimal on negation-free programs;
  a negation-free database has a single stratum), and GCWA/CCWA
  inference is classical entailment from ``DB ∪ {¬x : x ∈ ff(DB)}``.
  For a *literal* the closure is not needed: ``GCWA(DB) |= x`` iff
  ``MM(DB) |= x`` and ``GCWA(DB) |= ¬x`` iff no minimal model contains
  ``x`` — one founded witness query either way, which is the fix for
  the BENCH_pr5 ``hcf-disjunctive-chain`` regression (the old path
  recomputed the full closure per query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple, Union

from ..logic.atoms import Literal
from ..logic.database import DisjunctiveDatabase
from ..logic.formula import Formula, Not, Var
from ..logic.interpretation import Interpretation
from ..semantics.base import Semantics, ground_query, literal_formula
from .cost import (
    COST_MODEL,
    DEFAULT_PROCEDURE,
    FF_REDUCIBLE,
    HCF_CLOSURE_PROCEDURE,
    HCF_PROCEDURE,
    HORN_COLLAPSE,
    HORN_PROCEDURE,
    KERNEL_PROCEDURE,
    MM_REDUCIBLE,
    PERFECT_COLLAPSE,
    STRATIFIED_PROCEDURE,
    CostEstimate,
    CostModel,
)
from .fragment import FragmentProfile
from .procedures import (
    HeadCycleFreeSolver,
    hcf_free_atoms,
    horn_least_model,
    stratified_perfect_model,
    supported_model_tight,
)

__all__ = [
    "HORN_COLLAPSE",
    "MM_REDUCIBLE",
    "FF_REDUCIBLE",
    "PERFECT_COLLAPSE",
    "HORN_PROCEDURE",
    "HCF_PROCEDURE",
    "HCF_CLOSURE_PROCEDURE",
    "STRATIFIED_PROCEDURE",
    "KERNEL_PROCEDURE",
    "DEFAULT_PROCEDURE",
    "QueryPlan",
    "FragmentPlanner",
    "PlannedSemantics",
]

#: Complexity claim per procedure (what the certifier tightens to).
#: The kernel procedure is honest about its class: mask-packed brute
#: enumeration is exponential *time* but zero oracle calls, so its
#: envelope bounds nodes generously and NP calls at zero.
_CLAIMS = {
    HORN_PROCEDURE: "P",
    STRATIFIED_PROCEDURE: "P",
    HCF_PROCEDURE: "coNP",
    HCF_CLOSURE_PROCEDURE: "coNP",
    KERNEL_PROCEDURE: "EXP",
    DEFAULT_PROCEDURE: "table default",
}


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one query.

    Attributes:
        semantics: canonical semantics name.
        method: the entry point planned for.
        fragment: the database's fragment label.
        procedure: one of ``horn-least-model`` / ``stratified-perfect``
            / ``hcf-founded`` / ``hcf-closure`` / ``kernel-bitset`` /
            ``default``.
        claim: the complexity class the chosen procedure runs in (what
            the certifier tightens the envelope to).
        reason: one line of planner rationale.
        predicted_np_calls / predicted_sigma2 / predicted_nodes: the
            cost model's estimate for the chosen procedure — compared
            against the observed counters on every session query.
        candidates: the full per-candidate cost table (default first),
            as rendered by ``repro-ddb plan``.
    """

    semantics: str
    method: str
    fragment: str
    procedure: str
    claim: str
    reason: str
    predicted_np_calls: float = 0.0
    predicted_sigma2: float = 0.0
    predicted_nodes: float = 0.0
    candidates: Tuple[CostEstimate, ...] = field(default=(), compare=False)

    @property
    def envelope_key(self) -> Optional[str]:
        """The certifier's tightened-envelope key (``None`` = the
        regular table-cell envelope applies)."""
        if self.procedure == HORN_PROCEDURE:
            return "horn"
        if self.procedure == STRATIFIED_PROCEDURE:
            return "stratified-normal"
        if self.procedure in (HCF_PROCEDURE, HCF_CLOSURE_PROCEDURE):
            return "hcf"
        if self.procedure == KERNEL_PROCEDURE:
            return "kernel"
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "semantics": self.semantics,
            "method": self.method,
            "fragment": self.fragment,
            "procedure": self.procedure,
            "claim": self.claim,
            "reason": self.reason,
            "predicted_np_calls": round(self.predicted_np_calls, 2),
            "predicted_sigma2": round(self.predicted_sigma2, 2),
            "predicted_nodes": round(self.predicted_nodes, 2),
            "candidates": [c.as_dict() for c in self.candidates],
        }

    def render(self) -> str:
        return (
            f"{self.semantics}/{self.method} on {self.fragment}: "
            f"{self.procedure} [{self.claim}] "
            f"(predicted {self.predicted_np_calls:g} np / "
            f"{self.predicted_sigma2:g} σ₂) — {self.reason}"
        )


class FragmentPlanner:
    """Maps (profile, semantics, entry point) to a :class:`QueryPlan`
    by per-candidate cost comparison."""

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = (
            cost_model if cost_model is not None else COST_MODEL
        )

    @staticmethod
    def _default_parameterization(inner: Semantics) -> bool:
        """The fast paths are proved only for the default partition
        (minimize the whole vocabulary, nothing floats, canonical
        stratification)."""
        return (
            getattr(inner, "p", None) is None
            and not getattr(inner, "z", frozenset())
            and getattr(inner, "stratification", None) is None
        )

    def plan(
        self,
        profile: FragmentProfile,
        inner: Semantics,
        method: str,
    ) -> QueryPlan:
        name = inner.name
        params_ok = self._default_parameterization(inner)
        chosen, candidates = self.cost_model.choose(
            profile, name, method, default_parameterization=params_ok
        )
        if not params_ok:
            reason = "non-default partition parameters"
        elif chosen.procedure == DEFAULT_PROCEDURE:
            cheapest_other = min(
                (c for c in candidates if c.procedure != DEFAULT_PROCEDURE),
                key=lambda c: c.scalar,
                default=None,
            )
            if cheapest_other is None:
                reason = (
                    f"no specialized candidate for the "
                    f"{profile.fragment} fragment"
                )
            else:
                reason = (
                    f"no candidate predicted cheaper than default "
                    f"({chosen.scalar:g} vs best alternative "
                    f"{cheapest_other.scalar:g})"
                )
        else:
            default = candidates[0]
            reason = (
                f"{chosen.reason} — predicted {chosen.scalar:g} vs "
                f"default {default.scalar:g}"
            )
        return QueryPlan(
            semantics=name,
            method=method,
            fragment=profile.fragment,
            procedure=chosen.procedure,
            claim=_CLAIMS[chosen.procedure],
            reason=reason,
            predicted_np_calls=chosen.np_calls,
            predicted_sigma2=chosen.sigma2_dispatches,
            predicted_nodes=chosen.nodes,
            candidates=candidates,
        )


class PlannedSemantics(Semantics):
    """The ``"planned"`` engine: cost-dispatched façade over an
    oracle-engine instance.

    Obtain through ``get_semantics(name, engine="planned")`` or
    ``DatabaseSession(db, engine="planned")``.  The last chosen plan is
    kept on :attr:`last_plan` for the session/certifier; unknown
    attributes delegate to the wrapped instance.
    """

    def __init__(
        self,
        inner: Semantics,
        planner: Optional[FragmentPlanner] = None,
    ):
        from ..engine.cached import CachedSemantics

        if isinstance(inner, PlannedSemantics):
            inner = inner.inner
        # Deliberately skip Semantics.__init__: "planned" is a wrapper
        # engine, same pattern as CachedSemantics.
        self.inner = inner
        self.engine = "planned"
        self.name = inner.name
        self.aliases = inner.aliases
        self.description = inner.description
        self._custom_planner = planner is not None
        self.planner = planner if planner is not None else FragmentPlanner()
        # The default procedure runs behind the memo cache: the planner
        # composes with the caching layer instead of competing with it
        # (ROADMAP gate: planned is never materially slower than cached).
        self.fallback = CachedSemantics(inner)
        self.last_plan: Optional[QueryPlan] = None
        # The perfect-model fixpoint behind the stratified fast path:
        # for the supported semantics it is the tight-program variant
        # (same memoized computation, documented gate).
        self._perfect = (
            supported_model_tight
            if inner.name == "supported"
            else stratified_perfect_model
        )
        # Lazily-built brute instance backing the kernel-bitset
        # procedure (mask-packed enumeration; see repro.kernel).
        self._kernel_brute: Optional[Semantics] = None
        # Per-instance plan memo in front of the engine-cache entry:
        # repeated queries on one engine pay a dict hit instead of the
        # shared cache's key build + LRU bookkeeping.  A hit also
        # certifies validation — both are deterministic per
        # ``(db, parameterization)``, so a stored plan proves
        # ``validate(db)`` succeeded when it was built.
        self._plan_memo: Dict[Tuple, QueryPlan] = {}

    # ------------------------------------------------------------------
    def validate(self, db: DisjunctiveDatabase) -> None:
        # Runs before planning so inapplicable databases raise exactly
        # as they would on any other engine.
        self.inner.validate(db)

    def plan_for(self, db: DisjunctiveDatabase, method: str) -> QueryPlan:
        """The plan this engine would (and does) use for ``method`` —
        memoized per ``(db, semantics, params, method)``, first in this
        instance and then through
        :func:`repro.engine.cache.query_plan_for` (a custom planner
        bypasses both caches)."""
        if self._custom_planner:
            plan = self._build_plan(db, method)
        else:
            key = (db,) + self.inner.cache_params() + (method,)
            plan = self._plan_memo.get(key)
            if plan is None:
                plan = self._build_plan(db, method)
                if len(self._plan_memo) >= 1024:
                    self._plan_memo.clear()
                self._plan_memo[key] = plan
        self.last_plan = plan
        return plan

    def _build_plan(self, db: DisjunctiveDatabase, method: str) -> QueryPlan:
        from ..engine.cache import query_plan_for

        return query_plan_for(
            db,
            self.inner,
            method,
            planner=self.planner if self._custom_planner else None,
        )

    def _validated_plan(
        self, db: DisjunctiveDatabase, method: str
    ) -> QueryPlan:
        """:meth:`plan_for` with validation folded in: re-validating on
        an instance-memo hit would cost more than the dispatch it guards,
        and the stored plan already proves the database is legal for this
        parameterization."""
        if self._custom_planner:
            self.validate(db)
            return self.plan_for(db, method)
        key = (db,) + self.inner.cache_params() + (method,)
        plan = self._plan_memo.get(key)
        if plan is None:
            self.validate(db)
            plan = self._build_plan(db, method)
            if len(self._plan_memo) >= 1024:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        self.last_plan = plan
        return plan

    def _answer_key(self, db: DisjunctiveDatabase, *query) -> Tuple:
        """Fast-path answers share the cached engine's key discipline:
        answers are engine-independent (differential-tested), so one
        entry serves ``cached`` and ``planned`` alike."""
        return (
            (db, self.inner.name, self.inner.engine)
            + self.inner.cache_params()
            + query
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def model_set(
        self, db: DisjunctiveDatabase
    ) -> FrozenSet[Interpretation]:
        plan = self._validated_plan(db, "model_set")
        if plan.procedure == HORN_PROCEDURE:
            model, consistent = horn_least_model(db)
            return frozenset({model}) if consistent else frozenset()
        if plan.procedure == STRATIFIED_PROCEDURE:
            model, consistent = self._perfect(db)
            return frozenset({model}) if consistent else frozenset()
        if plan.procedure == KERNEL_PROCEDURE:
            return self._memoized(
                "model_set", self._answer_key(db),
                lambda: self._kernel_engine().model_set(db),
            )
        # static: fallback-edge -- planner's never-worse default
        return self.fallback.model_set(db)

    def infers(self, db: DisjunctiveDatabase, formula: Formula) -> bool:
        plan = self._validated_plan(db, "infers")
        if plan.procedure == HORN_PROCEDURE:
            model, consistent = horn_least_model(db)
            if not consistent:
                return True  # vacuous: no selected models
            return model.satisfies(ground_query(db, formula))
        if plan.procedure == STRATIFIED_PROCEDURE:
            model, consistent = self._perfect(db)
            if not consistent:
                return True
            return model.satisfies(ground_query(db, formula))
        if plan.procedure == KERNEL_PROCEDURE:
            return self._memoized(
                "infers", self._answer_key(db, formula),
                lambda: self._kernel_engine().infers(db, formula),
            )
        if plan.procedure == HCF_PROCEDURE:
            return self._memoized(
                "infers", self._answer_key(db, formula),
                lambda: self._hcf_entails(db, ground_query(db, formula)),
            )
        if plan.procedure == HCF_CLOSURE_PROCEDURE:
            return self._memoized(
                "infers", self._answer_key(db, formula),
                lambda: self._hcf_closure_infers(
                    db, ground_query(db, formula)
                ),
            )
        # static: fallback-edge -- planner's never-worse default
        return self.fallback.infers(db, formula)

    def infers_literal(
        self, db: DisjunctiveDatabase, literal: Union[Literal, str]
    ) -> bool:
        if isinstance(literal, str):
            literal = Literal.parse(literal)
        plan = self._validated_plan(db, "infers_literal")
        if plan.procedure == HORN_PROCEDURE:
            model, consistent = horn_least_model(db)
            if not consistent:
                return True
            return (literal.atom in model) == literal.positive
        if plan.procedure == STRATIFIED_PROCEDURE:
            model, consistent = self._perfect(db)
            if not consistent:
                return True
            return (literal.atom in model) == literal.positive
        if plan.procedure == KERNEL_PROCEDURE:
            return self._memoized(
                "infers_literal", self._answer_key(db, literal),
                lambda: self._kernel_infers_literal(db, literal),
            )
        if plan.procedure == HCF_PROCEDURE:
            return self._memoized(
                "infers_literal", self._answer_key(db, literal),
                lambda: self._hcf_infers_literal(db, literal),
            )
        # static: fallback-edge -- planner's never-worse default
        return self.fallback.infers_literal(db, literal)

    def infers_brave(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        plan = self._validated_plan(db, "infers_brave")
        if plan.procedure == HORN_PROCEDURE:
            model, consistent = horn_least_model(db)
            if not consistent:
                return False  # no selected model can witness anything
            return model.satisfies(ground_query(db, formula))
        if plan.procedure == STRATIFIED_PROCEDURE:
            model, consistent = self._perfect(db)
            if not consistent:
                return False
            return model.satisfies(ground_query(db, formula))
        if plan.procedure == KERNEL_PROCEDURE:
            return self._memoized(
                "infers_brave", self._answer_key(db, formula),
                lambda: self._kernel_engine().infers_brave(db, formula),
            )
        if plan.procedure == HCF_PROCEDURE:
            grounded = ground_query(db, formula)
            return self._memoized(
                "infers_brave", self._answer_key(db, formula),
                lambda: self._hcf_witness(db, grounded),
            )
        # static: fallback-edge -- planner's never-worse default
        return self.fallback.infers_brave(db, formula)

    def has_model(self, db: DisjunctiveDatabase) -> bool:
        plan = self._validated_plan(db, "has_model")
        if plan.procedure == HORN_PROCEDURE:
            _, consistent = horn_least_model(db)
            return consistent
        if plan.procedure == STRATIFIED_PROCEDURE:
            _, consistent = self._perfect(db)
            return consistent
        if plan.procedure == KERNEL_PROCEDURE:
            return self._memoized(
                "has_model", self._answer_key(db),
                lambda: self._kernel_engine().has_model(db),
            )
        # static: fallback-edge -- planner's never-worse default
        return self.fallback.has_model(db)

    # ------------------------------------------------------------------
    # The head-cycle-free procedures
    # ------------------------------------------------------------------
    def _memoized(self, kind: str, key: Tuple, compute):
        from ..engine.cache import ENGINE_CACHE

        return ENGINE_CACHE.get_or_compute(kind, key, compute)

    # ------------------------------------------------------------------
    # The bitset-kernel procedure
    # ------------------------------------------------------------------
    def _kernel_engine(self) -> Semantics:
        """The brute instance behind the kernel-bitset procedure (lazy).

        The brute engine already runs mask-packed internals whenever the
        kernel is enabled (see :mod:`repro.models.enumeration`); the
        planner only ever routes here with the default parameterization,
        which is exactly what the registry instance carries.
        """
        if self._kernel_brute is None:
            from ..semantics.base import get_semantics

            self._kernel_brute = get_semantics(self.name, engine="brute")
        return self._kernel_brute

    def _kernel_infers_literal(
        self, db: DisjunctiveDatabase, literal: Literal
    ) -> bool:
        """Kernel-procedure literal inference.

        For the GCWA family (default partition, negation read
        classically) the answer comes straight off the memoized
        ``MM(DB)`` enumeration: a positive literal holds iff it holds
        in every minimal model (atoms persist upward from the minimal
        model each GCWA model contains), a negative one iff no minimal
        model contains the atom (the closure test) — so one shared
        ``minimal_models_for`` entry serves every literal of a
        closure-style sweep.  Everything else runs the semantics' own
        brute engine.
        """
        if self.name in FF_REDUCIBLE:
            from ..engine.cache import minimal_models_for

            models = minimal_models_for(db)
            if literal.positive:
                return all(literal.atom in m for m in models)
            return not any(literal.atom in m for m in models)
        return self._kernel_engine().infers_literal(db, literal)

    def _hcf_solver(self, db: DisjunctiveDatabase) -> HeadCycleFreeSolver:
        return HeadCycleFreeSolver(db)

    def _hcf_entails(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        """Cautious minimal-model entailment on the founded machine."""
        with self._hcf_solver(db) as solver:
            return solver.np_entails(formula)

    def _hcf_witness(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        """Brave inference: some minimal model satisfies ``formula``."""
        with self._hcf_solver(db) as solver:
            return solver.np_find_minimal_satisfying(formula) is not None

    def _hcf_infers_literal(
        self, db: DisjunctiveDatabase, literal: Literal
    ) -> bool:
        """The single-query literal reduction (GCWA family): a positive
        literal is minimal-model entailment, a negative one asks for a
        minimal witness of the atom — one founded search either way."""
        if self.name in FF_REDUCIBLE:
            with self._hcf_solver(db) as solver:
                if literal.positive:
                    return solver.np_entails(Var(literal.atom))
                return (
                    solver.np_find_minimal_satisfying(Var(literal.atom))
                    is None
                )
        return self._hcf_entails(
            db, ground_query(db, literal_formula(literal))
        )

    def _hcf_closure_infers(
        self, db: DisjunctiveDatabase, formula: Formula
    ) -> bool:
        """GCWA-family formula inference: classical entailment from the
        memoized founded ``ff(DB)`` closure."""
        from ..semantics.gcwa import closure_model

        return closure_model(db, hcf_free_atoms(db), Not(formula)) is None

    # ------------------------------------------------------------------
    def cache_params(self) -> tuple:
        return self.inner.cache_params()

    def __getattr__(self, attr: str):
        # Only reached for attributes not found normally; delegate to
        # the wrapped semantics (partition params, closure helpers, ...).
        return getattr(self.inner, attr)

    def __repr__(self) -> str:
        return f"PlannedSemantics({self.inner!r})"
