"""The planner's calibrated per-procedure cost model.

Every candidate procedure the :class:`~repro.analysis.planner.
FragmentPlanner` may dispatch to gets a :class:`CostEstimate` — predicted
NP-oracle calls, Σ₂ᵖ dispatches and enumeration nodes — computed from the
:class:`~repro.analysis.fragment.FragmentProfile` alone (clause census,
head widths, SCC sizes, strata).  The planner picks the candidate with
the smallest weighted scalar and **never** selects a specialized
procedure whose estimate exceeds the default engine's, so a fragment
fast path can only ever be chosen where the model predicts it wins.

Cost formulas (calibrated against measured oracle accounting on the
differential corpus and the benchmark families; the calibration band is
asserted by ``tests/test_differential.py``):

``G``, the *growth term*, prices how hard one candidate-model search is::

    G(p)  = (atoms + largest_scc + disjunctive_clauses) // 8

* one Σ₂ᵖ dispatch (``find_minimal_satisfying``: candidate generation
  and one SAT minimality check per candidate)::

      S(p)  = 3 + G(p)          # NP calls, 1 Σ₂ᵖ dispatch

* one *founded* search (``np_find_minimal_satisfying``: the same
  candidate loop, each candidate shrunk within the search scope and
  checked by the polynomial foundedness test instead of an NP call —
  priced one SAT call below ``S``, zero dispatches)::

      F(p)  = 2 + G(p)          # NP calls, 0 dispatches

* the free-for-negation closure ``ff(DB)`` (one search per vocabulary
  atom plus one classical entailment call)::

      FF(p)  = atoms * S(p) + 1     # default (Σ₂ᵖ) closure
      FF0(p) = atoms * F(p) + 1     # founded closure (memoized per DB)

* model enumeration is priced exponentially in the choice points; a
  database that splits into connected components is priced as a *sum*
  of per-component terms (the brute enumerators decompose, see
  :mod:`repro.sat.decompose`), never above the monolithic bound::

      E(p)  = 2 ** min(disjunctive_clauses + 1, 14)          # connected
      E(p)  = min(Σᵢ 2 ** min(dᵢ + 1, 14), monolithic E)     # split

* the bitset kernel (:mod:`repro.kernel`) answers MM-/ff-reducible
  queries by mask-packed enumeration — zero oracle calls, pure
  enumeration nodes: a setup constant plus one full-vocabulary sweep
  per component (and a second sweep for methods that must materialize
  all models rather than just the minimal ones)::

      K(p) = KERNEL_SETUP + Σᵢ 2 ** min(|Vᵢ| + 1, 26) [+ 2 ** min(atoms + 1, 26)]

  The 26-bit cap deliberately exceeds the enumeration cap: a large
  connected database prices the kernel out rather than flattening its
  estimate into competitiveness.

The per-``(semantics, method)`` default-engine estimates combine these
(see :meth:`CostModel.default_estimate`); the Horn and
stratified-perfect fixpoints are pure P (all-zero estimates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Tuple

from .fragment import FragmentProfile

#: Procedure names recorded on plans and cost estimates.
HORN_PROCEDURE = "horn-least-model"
HCF_PROCEDURE = "hcf-founded"
HCF_CLOSURE_PROCEDURE = "hcf-closure"
STRATIFIED_PROCEDURE = "stratified-perfect"
KERNEL_PROCEDURE = "kernel-bitset"
DEFAULT_PROCEDURE = "default"

#: Flat node price of packing a database into the bitset kernel (atom
#: table + clause masks, both memoized) and converting answers back at
#: the API boundary; keeps the kernel from looking free on tiny inputs
#: where one pooled SAT call is genuinely cheaper.
KERNEL_SETUP = 256.0

#: Bit cap of the kernel's exponential sweep terms.  Deliberately far
#: above the 14-bit enumeration cap: a large connected vocabulary must
#: price the kernel *out*, not flatten into competitiveness.
_KERNEL_BIT_CAP = 26

#: Semantics whose selected-model set collapses to {least model} on
#: consistent Horn databases (and to ∅ on inconsistent ones), under the
#: default partition.  See the planner module docstring for exclusions.
HORN_COLLAPSE: FrozenSet[str] = frozenset(
    {
        "cwa", "gcwa", "ddr", "pws", "egcwa", "ccwa", "ecwa", "icwa",
        "perf", "dsm",
    }
)

#: Semantics whose cautious/brave inference is plain minimal-model
#: entailment on head-cycle-free deductive databases (default partition).
MM_REDUCIBLE: FrozenSet[str] = frozenset(
    {"egcwa", "ecwa", "icwa", "dsm", "perf"}
)

#: Semantics whose inference is classical entailment from the
#: free-for-negation closure (GCWA-style) — ``ff`` itself reduces to
#: minimal-model witness queries.
FF_REDUCIBLE: FrozenSet[str] = frozenset({"gcwa", "ccwa"})

#: Semantics whose selected models collapse to {the iterated least
#: model} on stratified *normal* (head width ≤ 1) databases: the unique
#: perfect model is the unique stable model (Apt–Blair–Walker), which
#: PERF selects by priority, ICWA by stratum-wise iteration and DSM as
#: its only stable model.  GCWA-family semantics read negative bodies
#: classically and do **not** collapse.
PERFECT_COLLAPSE: FrozenSet[str] = frozenset({"perf", "icwa", "dsm"})

#: Scalar weights: one Σ₂ᵖ dispatch costs dispatch bookkeeping on top of
#: the NP calls it already accounts for; enumeration nodes are cheap
#: pure-python steps, priced well below one oracle call.
SIGMA2_WEIGHT = 2.0
NODE_WEIGHT = 0.01

#: Methods the specialized inference procedures cover.
_INFERENCE_METHODS = ("infers", "infers_literal", "infers_brave")


@dataclass(frozen=True)
class CostEstimate:
    """Predicted oracle work of one procedure for one query.

    Attributes:
        procedure: the candidate's procedure name.
        np_calls / sigma2_dispatches / nodes: the predicted counter
            values of :class:`~repro.obs.accounting.OracleObservation`.
        reason: one line of estimator rationale.
    """

    procedure: str
    np_calls: float
    sigma2_dispatches: float
    nodes: float
    reason: str

    @property
    def scalar(self) -> float:
        """The weighted single-number cost the planner minimizes."""
        return (
            self.np_calls
            + SIGMA2_WEIGHT * self.sigma2_dispatches
            + NODE_WEIGHT * self.nodes
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "procedure": self.procedure,
            "np_calls": round(self.np_calls, 2),
            "sigma2_dispatches": round(self.sigma2_dispatches, 2),
            "nodes": round(self.nodes, 2),
            "scalar": round(self.scalar, 2),
            "reason": self.reason,
        }


class CostModel:
    """Estimates per-candidate oracle work from a fragment profile.

    Stateless; the module-level :data:`COST_MODEL` is the shared
    instance.  All formulas are monotone (non-decreasing) in every
    profile count they read — adding clauses, growing an SCC or widening
    a head never makes a query look cheaper (asserted by
    ``tests/test_cost_model.py``).
    """

    # ------------------------------------------------------------------
    # Primitive formulas (see the module docstring)
    # ------------------------------------------------------------------
    @staticmethod
    def growth(profile: FragmentProfile) -> float:
        """``G(p)`` — how hard one candidate-model search is."""
        return (
            profile.atoms + profile.largest_scc
            + profile.disjunctive_clauses
        ) // 8

    def sigma2_search_np(self, profile: FragmentProfile) -> float:
        """``S(p)`` — NP calls of one Σ₂ᵖ ``find_minimal_satisfying``."""
        return 3.0 + self.growth(profile)

    def founded_search_np(self, profile: FragmentProfile) -> float:
        """``F(p)`` — NP calls of one founded (NP-level) search."""
        return 2.0 + self.growth(profile)

    def ff_closure_np(
        self, profile: FragmentProfile, founded: bool = False
    ) -> float:
        """``FF(p)`` / ``FF0(p)`` — the free-for-negation closure."""
        per_atom = (
            self.founded_search_np(profile)
            if founded
            else self.sigma2_search_np(profile)
        )
        return profile.atoms * per_atom + 1.0

    def enumeration_nodes(self, profile: FragmentProfile) -> float:
        """``E(p)`` — model-enumeration price (choice points).

        A database that splits into connected components is priced as
        the sum of per-component terms (the enumerators decompose along
        components), capped at the monolithic bound so the decomposed
        estimate is never *worse* than the connected one.
        """
        monolithic = float(2 ** min(profile.disjunctive_clauses + 1, 14))
        if profile.component_count > 1:
            split = float(
                sum(
                    2 ** min(d + 1, 14)
                    for d in profile.component_disjunctive
                )
            )
            return min(split, monolithic)
        return monolithic

    def kernel_nodes(
        self, profile: FragmentProfile, semantics: str, method: str
    ) -> float:
        """``K(p)`` — the bitset kernel's pure-enumeration price.

        Setup constant plus one full sweep of each connected
        component's candidate space (the decomposed minimal-model
        enumeration), plus a second whole-vocabulary sweep for methods
        that must materialize *all* classical models rather than just
        the minimal ones.  The exemptions mirror the brute engines:
        GCWA/CCWA ``infers_literal`` is answered from ``MM(DB)`` alone,
        and every EGCWA entry point is minimal-model-only by definition
        (EGCWA models = minimal models).
        """
        if profile.component_count > 1:
            sweep = float(
                sum(
                    2 ** min(a + 1, _KERNEL_BIT_CAP)
                    for a in profile.component_atoms
                )
            )
        else:
            sweep = float(2 ** min(profile.atoms + 1, _KERNEL_BIT_CAP))
        minimal_only = (
            semantics in FF_REDUCIBLE and method == "infers_literal"
        ) or (
            semantics == "egcwa"
            and method in (
                "infers", "infers_brave", "infers_literal", "model_set",
            )
        )
        if not minimal_only:
            sweep += float(2 ** min(profile.atoms + 1, _KERNEL_BIT_CAP))
        return KERNEL_SETUP + sweep

    # ------------------------------------------------------------------
    # Default-engine estimates
    # ------------------------------------------------------------------
    def default_estimate(
        self, profile: FragmentProfile, semantics: str, method: str
    ) -> CostEstimate:
        """What the wrapped oracle engine is predicted to spend on one
        ``method`` query under ``semantics``.

        Asymmetries worth knowing when reading predicted-vs-actual:
        ``infers_literal`` is priced at the single-dispatch reduction
        (both polarities for GCWA, the negative-literal closure test for
        CCWA — CCWA *positive* literals route through the full closure
        and can exceed the estimate), and ``model_set`` is an
        enumerative order-of-magnitude bound, documented as outside the
        calibration band.
        """
        s = self.sigma2_search_np(profile)
        strata_extra = float(max(0, profile.strata - 1))
        if method == "has_model":
            if profile.is_positive:
                return self._estimate(
                    DEFAULT_PROCEDURE, 0.0, 0.0, 0.0,
                    "positive database: model existence is trivial",
                )
            # Measured on the differential corpus: existence checks
            # settle in 0–2 SAT calls regardless of how much negation
            # the database carries, so the term is capped.
            return self._estimate(
                DEFAULT_PROCEDURE,
                1.0 + min(float(profile.clauses_with_negation), 2.0),
                0.0, 0.0,
                "consistency / stable-model existence check",
            )
        if method == "model_set":
            nodes = self.enumeration_nodes(profile)
            np_calls = nodes + (
                self.ff_closure_np(profile)
                if semantics in FF_REDUCIBLE
                else s
            )
            return self._estimate(
                DEFAULT_PROCEDURE, np_calls, 1.0, nodes,
                "selected-model enumeration",
            )
        # The inference entry points.
        if semantics in FF_REDUCIBLE:
            if method == "infers" or method == "infers_brave":
                return self._estimate(
                    DEFAULT_PROCEDURE,
                    self.ff_closure_np(profile),
                    float(profile.atoms),
                    0.0,
                    "ff(DB) closure (one Σ₂ᵖ query per atom) + one "
                    "classical entailment call",
                )
            return self._estimate(
                DEFAULT_PROCEDURE, s, 1.0, 0.0,
                "one Σ₂ᵖ minimal-witness query (negative-literal "
                "closure test)",
            )
        # MM-entailment family (egcwa/ecwa/dsm) and the stratified
        # iterators (icwa/perf) — one dispatch, plus a stratum term.
        dispatches = 1.0 if semantics in ("egcwa", "ecwa", "icwa") else 0.0
        return self._estimate(
            DEFAULT_PROCEDURE, s + strata_extra, dispatches, 0.0,
            "one minimal-model entailment query"
            + (" per stratum" if strata_extra else ""),
        )

    # ------------------------------------------------------------------
    # Candidate enumeration and choice
    # ------------------------------------------------------------------
    def candidates(
        self,
        profile: FragmentProfile,
        semantics: str,
        method: str,
        default_parameterization: bool = True,
    ) -> Tuple[CostEstimate, ...]:
        """Every *sound* candidate for this query, default first.

        The fast paths are proved only for the default partition; with
        explicit ``(P;Z)`` parameters the default engine is the only
        candidate.
        """
        out = [self.default_estimate(profile, semantics, method)]
        if not default_parameterization:
            return tuple(out)
        if profile.is_horn and semantics in HORN_COLLAPSE:
            out.append(
                self._estimate(
                    HORN_PROCEDURE, 0.0, 0.0, 0.0,
                    "unit-propagation least model (pure P, zero SAT "
                    "calls)",
                )
            )
        if (
            profile.is_stratified
            and profile.max_head_width <= 1
            and not profile.is_horn
            and semantics in PERFECT_COLLAPSE
        ):
            out.append(
                self._estimate(
                    STRATIFIED_PROCEDURE, 0.0, 0.0, 0.0,
                    "iterated per-stratum least model (unique perfect "
                    "model, pure P)",
                )
            )
        if (
            profile.is_stratified
            and profile.max_head_width <= 1
            and profile.positive_acyclic
            and semantics == "supported"
        ):
            # Tight (positive-acyclic) ⟹ supported = stable models
            # (Fages); stratified normal ⟹ the unique stable model is
            # the perfect model (Apt–Blair–Walker).  Same fixpoint, and
            # positive acyclicity is essential: ``a :- a.`` is
            # stratified yet has the unsupported {a} excluded only by
            # tightness.
            out.append(
                self._estimate(
                    STRATIFIED_PROCEDURE, 0.0, 0.0, 0.0,
                    "tight stratified-normal database: the unique "
                    "supported model is the perfect model (pure P)",
                )
            )
        if profile.negation_free and profile.head_cycle_free:
            f = self.founded_search_np(profile)
            if semantics in MM_REDUCIBLE and method in _INFERENCE_METHODS:
                out.append(
                    self._estimate(
                        HCF_PROCEDURE, f, 0.0, 0.0,
                        "one founded minimal-witness search (polynomial "
                        "minimality check, zero Σ₂ᵖ dispatches)",
                    )
                )
            if semantics in FF_REDUCIBLE and method == "infers_literal":
                out.append(
                    self._estimate(
                        HCF_PROCEDURE, f, 0.0, 0.0,
                        "one founded minimal-witness search per literal "
                        "(zero Σ₂ᵖ dispatches)",
                    )
                )
            if semantics in FF_REDUCIBLE and method == "infers":
                out.append(
                    self._estimate(
                        HCF_CLOSURE_PROCEDURE,
                        self.ff_closure_np(profile, founded=True),
                        0.0,
                        0.0,
                        "founded ff(DB) closure (memoized per database) "
                        "+ one classical entailment call",
                    )
                )
        if semantics in MM_REDUCIBLE or semantics in FF_REDUCIBLE:
            out.append(
                self._estimate(
                    KERNEL_PROCEDURE,
                    0.0,
                    0.0,
                    self.kernel_nodes(profile, semantics, method),
                    "bitset-kernel enumeration (mask-packed, "
                    "decomposed per component; zero oracle calls)",
                )
            )
        return tuple(out)

    def choose(
        self,
        profile: FragmentProfile,
        semantics: str,
        method: str,
        default_parameterization: bool = True,
    ) -> Tuple[CostEstimate, Tuple[CostEstimate, ...]]:
        """``(chosen, all candidates)`` — cheapest scalar wins.

        The never-worse-than-default rule: a specialized candidate is
        selected only when its estimate is *strictly below* the default
        engine's, so on ties (and everywhere the model predicts no win)
        the planner stays on the table procedures.
        """
        table = self.candidates(
            profile, semantics, method, default_parameterization
        )
        default = table[0]
        chosen = min(table, key=lambda e: e.scalar)
        if (
            chosen.procedure != DEFAULT_PROCEDURE
            and chosen.scalar >= default.scalar
        ):
            chosen = default
        return chosen, table

    # ------------------------------------------------------------------
    @staticmethod
    def _estimate(
        procedure: str,
        np_calls: float,
        sigma2: float,
        nodes: float,
        reason: str,
    ) -> CostEstimate:
        return CostEstimate(
            procedure=procedure,
            np_calls=np_calls,
            sigma2_dispatches=sigma2,
            nodes=nodes,
            reason=reason,
        )


#: The shared estimator instance the planner and the CLI use.
COST_MODEL = CostModel()
